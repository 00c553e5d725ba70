package tpch

import (
	"fmt"
	"strconv"

	"repro/internal/stats"
)

// Row-count bases from the TPC-H specification (scale factor 1).
const (
	baseCustomers = 150_000
	baseOrders    = 1_500_000
	basePart      = 200_000
	baseSupplier  = 10_000
)

// ShipModes are the seven TPC-H shipping modes (Q12 groups on these).
var ShipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

// OrderPriorities are the five TPC-H priorities (Q12 splits on urgency).
var OrderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// Containers and Brands/Types use the spec's generative vocabulary.
var (
	containerSizes  = [...]string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containerShapes = [...]string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	typeSyllable1   = [...]string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2   = [...]string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3   = [...]string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	segments        = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	shipInstructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	regionNames     = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames     = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	nationRegion = []int32{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	commentWords = []string{
		"furiously", "quickly", "carefully", "blithely", "slyly", "express",
		"pending", "final", "regular", "special", "requests", "deposits",
		"accounts", "packages", "ideas", "theodolites", "instructions", "foxes",
	}
)

// GenOptions tunes the generator beyond the scale factor.
type GenOptions struct {
	// Seed controls every random column; the same (SF, Seed) pair
	// always produces the identical database.
	Seed int64
}

// Generate builds a TPC-H population at the given scale factor.
// SF = 1 corresponds to roughly 1 GB (≈8.6M rows across tables);
// the paper's datasets are SF 0.1 (100 MB) and SF 1 (1 GB).
func Generate(sf float64, opts GenOptions) (*Database, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("tpch: non-positive scale factor %v", sf)
	}
	rng := stats.NewRNG(opts.Seed)
	db := &Database{SF: sf}

	db.Regions = make([]Region, len(regionNames))
	for i, name := range regionNames {
		db.Regions[i] = Region{RegionKey: int32(i), Name: name}
	}
	db.Nations = make([]Nation, len(nationNames))
	for i, name := range nationNames {
		db.Nations[i] = Nation{NationKey: int32(i), Name: name, RegionKey: nationRegion[i]}
	}

	nCust := scaled(baseCustomers, sf)
	nOrders := scaled(baseOrders, sf)
	nPart := scaled(basePart, sf)
	nSupp := scaled(baseSupplier, sf)

	db.Customers = make([]Customer, nCust)
	custNames := numberedNames("Customer#", nCust, 9)
	for i := range db.Customers {
		db.Customers[i] = Customer{
			CustKey:    int32(i + 1),
			Name:       custNames[i],
			NationKey:  int32(rng.Intn(len(nationNames))),
			AcctBal:    rng.Uniform(-999.99, 9999.99),
			MktSegment: segments[rng.Intn(len(segments))],
		}
	}

	db.Suppliers = make([]Supplier, nSupp)
	suppNames := numberedNames("Supplier#", nSupp, 9)
	for i := range db.Suppliers {
		db.Suppliers[i] = Supplier{
			SuppKey:   int32(i + 1),
			Name:      suppNames[i],
			NationKey: int32(rng.Intn(len(nationNames))),
		}
	}

	// A part's manufacturer, brand, type and container each take one of
	// at most 150 values: each is built the first time it is drawn and
	// shared by every part that draws it again.
	var (
		mfgrs      [5]string
		brands     [5][5]string
		types      [len(typeSyllable1)][len(typeSyllable2)][len(typeSyllable3)]string
		containers [len(containerSizes)][len(containerShapes)]string
	)
	db.Parts = make([]Part, nPart)
	partNames := numberedNames("part ", nPart, 0)
	for i := range db.Parts {
		m, b := rng.Intn(5), rng.Intn(5)
		t1, t2, t3 := rng.Intn(len(typeSyllable1)), rng.Intn(len(typeSyllable2)), rng.Intn(len(typeSyllable3))
		size := int32(rng.Intn(50) + 1)
		cs, cp := rng.Intn(len(containerSizes)), rng.Intn(len(containerShapes))
		if mfgrs[m] == "" {
			mfgrs[m] = "Manufacturer#" + strconv.Itoa(m+1)
		}
		if brands[m][b] == "" {
			brands[m][b] = "Brand#" + strconv.Itoa((m+1)*10+b+1)
		}
		if types[t1][t2][t3] == "" {
			types[t1][t2][t3] = typeSyllable1[t1] + " " + typeSyllable2[t2] + " " + typeSyllable3[t3]
		}
		if containers[cs][cp] == "" {
			containers[cs][cp] = containerSizes[cs] + " " + containerShapes[cp]
		}
		db.Parts[i] = Part{
			PartKey:     int32(i + 1),
			Name:        partNames[i],
			Mfgr:        mfgrs[m],
			Brand:       brands[m][b],
			Type:        types[t1][t2][t3],
			Size:        size,
			Container:   containers[cs][cp],
			RetailPrice: 900 + float64((i+1)%200)/10 + rng.Uniform(0, 100),
		}
	}

	db.PartSupps = make([]PartSupp, 0, nPart*4)
	for i := 0; i < nPart; i++ {
		for s := 0; s < 4; s++ {
			db.PartSupps = append(db.PartSupps, PartSupp{
				PartKey:    int32(i + 1),
				SuppKey:    int32(rng.Intn(nSupp) + 1),
				AvailQty:   int32(rng.Intn(9999) + 1),
				SupplyCost: rng.Uniform(1, 1000),
			})
		}
	}

	// Orders span 1992-01-01 .. 1998-08-02 per the spec.
	lastOrderDay := int(MakeDate(1998, 8, 2))
	db.Orders = make([]Order, nOrders)
	db.Lineitems = make([]Lineitem, 0, nOrders*maxLines)
	statuses := []byte{'F', 'O', 'P'}
	// Every order's comment is appended to one buffer; commentEnds[i] is
	// where order i's ends. The comments are sliced out of one string
	// once the orders are drawn.
	comments := make([]byte, 0, nOrders*meanCommentLen)
	commentEnds := make([]int, nOrders)
	for i := range db.Orders {
		od := Date(rng.Intn(lastOrderDay + 1))
		o := Order{
			OrderKey:      int32(i + 1),
			CustKey:       int32(rng.Intn(nCust) + 1),
			OrderStatus:   statuses[rng.Intn(len(statuses))],
			OrderDate:     od,
			OrderPriority: OrderPriorities[rng.Intn(len(OrderPriorities))],
		}
		comments = appendComment(comments, rng)
		commentEnds[i] = len(comments)
		nLines := rng.Intn(maxLines) + 1
		var total float64
		for ln := 0; ln < nLines; ln++ {
			qty := float64(rng.Intn(50) + 1)
			price := qty * rng.Uniform(900, 1100)
			ship := od.AddDays(rng.Intn(121) + 1)
			commit := od.AddDays(rng.Intn(91) + 30)
			receipt := ship.AddDays(rng.Intn(30) + 1)
			li := Lineitem{
				OrderKey:      o.OrderKey,
				PartKey:       int32(rng.Intn(nPart) + 1),
				SuppKey:       int32(rng.Intn(nSupp) + 1),
				LineNumber:    int32(ln + 1),
				Quantity:      qty,
				ExtendedPrice: price,
				Discount:      float64(rng.Intn(11)) / 100,
				Tax:           float64(rng.Intn(9)) / 100,
				ReturnFlag:    returnFlag(rng, receipt),
				LineStatus:    lineStatus(ship),
				ShipDate:      ship,
				CommitDate:    commit,
				ReceiptDate:   receipt,
				ShipInstruct:  ShipInstruct(rng.Intn(len(shipInstructs))),
				ShipMode:      ShipMode(rng.Intn(len(ShipModes))),
			}
			total += li.ExtendedPrice * (1 - li.Discount) * (1 + li.Tax)
			db.Lineitems = append(db.Lineitems, li)
		}
		o.TotalPrice = total
		db.Orders[i] = o
	}
	text, start := string(comments), 0
	for i, end := range commentEnds {
		db.Orders[i].Comment = text[start:end]
		start = end
	}
	return db, nil
}

// maxLines is the most lineitems an order has (the spec's 1–7).
const maxLines = 7

// numberedNames returns prefix followed by n, zero-padded to width
// digits (fmt's "%0*d"), for n = 1..count: the unique names of a
// table's rows, sliced out of one string.
func numberedNames(prefix string, count, width int) []string {
	buf := make([]byte, 0, count*(len(prefix)+max(width, digits(count))))
	for n := 1; n <= count; n++ {
		buf = append(buf, prefix...)
		for range width - digits(n) {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	text := string(buf)
	names := make([]string, count)
	for i := range names {
		w := len(prefix) + max(width, digits(i+1))
		names[i], text = text[:w], text[w:]
	}
	return names
}

// digits returns the number of decimal digits of the non-negative n.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// scaled returns max(1, base·sf).
func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// appendComment appends a short pseudo-text comment; ~5% of order
// comments contain the "special … requests" pattern Q13 filters out,
// mirroring the selectivity of the spec's text grammar.
func appendComment(buf []byte, rng *stats.RNG) []byte {
	if rng.Bernoulli(0.05) {
		buf = append(buf, commentWords[rng.Intn(len(commentWords))]...)
		buf = append(buf, " special "...)
		buf = append(buf, commentWords[rng.Intn(len(commentWords))]...)
		return append(buf, " requests"...)
	}
	for w := range 3 {
		if w > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, commentWords[rng.Intn(len(commentWords))]...)
	}
	return buf
}

// meanCommentLen sizes the comment buffer: an order's comment averages
// about 25 bytes (three of commentWords, 7.6 bytes on average, and two
// spaces), so the buffer seldom grows.
const meanCommentLen = 26

// statusCutoff is the spec's "current date", 1995-06-17: lines received
// by it may be returned, lines shipped after it are still open.
var statusCutoff = MakeDate(1995, 6, 17)

func returnFlag(rng *stats.RNG, receipt Date) byte {
	if receipt <= statusCutoff {
		if rng.Bernoulli(0.5) {
			return 'R'
		}
		return 'A'
	}
	return 'N'
}

func lineStatus(ship Date) byte {
	if ship > statusCutoff {
		return 'O'
	}
	return 'F'
}
