package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/framelog"
	"repro/internal/histstore"
)

// FuzzDecodeRequest: whatever an earlier body did to a pooled
// serveScratch, the next decode behaves like a fresh json.Unmarshal
// (single-value semantics) of its own bytes — same verdict and, on
// success, the same request. A poisoned body never leaks into the next
// request that borrows the scratch.
func FuzzDecodeRequest(f *testing.F) {
	valid := `{"federation":"f","query":"Q12","weights":[1,2],"constraints":[3],"strategy":"lex","lex_order":[1,0],"lex_tolerance":0.1,"timeout_ms":5}`
	f.Add([]byte(valid), []byte(`{"query":"Q13"}`))
	f.Add([]byte(`{"query":"Q12"}}`), []byte(`{"query":"Q13"}`)) // stray closer after a whole value
	f.Add([]byte(`{"query":"Q12"} {"query":`), []byte(valid))    // second, torn value
	f.Add([]byte(`{"weights":[1,2,3`), []byte(`{"weights":null}`))
	f.Add([]byte(`{"query":"Q12"}   `), []byte(`  {"query":"Q14"}]`))
	f.Add([]byte(``), []byte(`null`))
	f.Add([]byte(`{"timeout_ms":"x"}`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, poison, body []byte) {
		sc := servePool.New().(*serveScratch)
		_ = sc.decodeRequest(poison)
		err := sc.decodeRequest(body)
		var want QueryRequest
		wantErr := json.Unmarshal(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("after %q, decodeRequest(%q) = %v; json.Unmarshal = %v", poison, body, err, wantErr)
		}
		if err != nil {
			return
		}
		// The pooled request keeps empty-but-allocated slices where a
		// fresh decode leaves nil.
		got := sc.req
		for _, s := range []*[]float64{&got.Weights, &got.Constraints, &want.Weights, &want.Constraints} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		for _, s := range []*[]int{&got.LexOrder, &want.LexOrder} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q, decodeRequest(%q) decoded %+v, want %+v", poison, body, got, want)
		}
	})
}

// scriptConn is a replication stream whose owner has already said
// everything it will say: reads drain the script, writes (the acks) are
// kept. The batch loop uses nothing else of a net.Conn.
type scriptConn struct {
	net.Conn
	script *bytes.Reader
	acks   bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.script.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.acks.Write(p) }

// encodeBatch frames one append batch the way an owner does; encodeKind
// any kind.
func encodeBatch(query string, from uint64, frames []byte) []byte {
	return encodeKind(replAppend, query, from, frames)
}

func encodeKind(kind byte, query string, from uint64, frames []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(replBatchFixed+len(query)+len(frames)))
	b = binary.LittleEndian.AppendUint64(append(b, kind), from)
	b = append(append(b, byte(len(query))), query...)
	return append(b, frames...)
}

// FuzzReplicateStream: whatever bytes follow the handshake, a standby's
// batch loop does not panic, allocates nothing on the word of an oversized
// length, acks each whole batch with the verdict its kind earns — an
// append or a sync AppendReplicaFrames', a kind nobody defined a refusal
// — and stops at the first
// refusal, so its replica is file for file, byte for byte, the one a
// reference store builds from the accepted batches alone, and a
// takeover opening it loads no NaN or ±Inf.
func FuzzReplicateStream(f *testing.F) {
	frames, fs := walFrames(f, 8)
	whole := append(encodeBatch("Q12", 0, frames[:fs]), encodeBatch("Q12", 1, frames[fs:4*fs])...)
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-3] ^= 0x40 // a frame's CRC no longer matches
	for _, seed := range [][]byte{
		nil,
		whole,
		whole[:len(whole)-5], // torn inside the last batch
		flipped,
		append(append([]byte(nil), whole...), encodeBatch("Q12", 2, frames[2*fs:6*fs])...), // overlap
		append(append([]byte(nil), whole...), encodeBatch("Q12", 6, frames[6*fs:])...),     // gap
		append(append([]byte(nil), whole...), encodeBatch("Q13", 4, frames[4*fs:5*fs])...), // not served
		encodeBatch("", 0, nil),
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 'Q', '1', '2'}, // 4 GiB, it says
		{0x00, 0x00, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 'Q', '1', '2'}, // 8 MiB, nothing behind it
		{10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200},                         // shorter than its query name
		make([]byte, 64),
		encodeBatch("Q12", 0, []byte("00\r\x000000")), // a frame that claims 864 KB
		// A sync rebases onto whatever came before it, and appends run on.
		append(append(append([]byte(nil), whole...), encodeKind(replSync, "Q12", 2, frames[2*fs:5*fs])...), encodeBatch("Q12", 5, frames[5*fs:])...),
		append(encodeKind(replSync, "Q12", 3, frames[2*fs:5*fs]), whole...),              // a sync whose frames start before its from
		append(encodeKind(replSync, "Q12", 1<<63, nil), whole...),                        // an empty sync, far away: the append after it is a gap
		append(append([]byte(nil), whole...), encodeKind(2, "Q12", 0, frames)...),        // a handoff batch's old kind
		append(append([]byte(nil), whole...), encodeKind(7, "Q12", 4, frames[4*fs:])...), // no such kind
		append(append([]byte(nil), whole...), encodeBatch("Q12", 4, nanFrame(4))...),     // CRC-valid, not finite
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, refDir := t.TempDir(), t.TempDir()
		tn, ref := standbyTenant(t, dir), standbyTenant(t, refDir)
		conn := &scriptConn{script: bytes.NewReader(data)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tn.serveReplicaStream(conn)
		runtime.ReadMemStats(&after)

		// The reference: the same bytes cut into batches by hand, each
		// whole one put to AppendReplicaFrames, nothing after a refusal.
		type verdict struct {
			status int
			next   uint64
		}
		var want []verdict
		budget := uint64(256<<10 + 4*len(data))
		for rest := data; len(rest) >= replBatchHeader; {
			size := int(binary.LittleEndian.Uint32(rest))
			kind, from, qlen := rest[4], binary.LittleEndian.Uint64(rest[5:]), int(rest[13])
			if size > replMaxBatch {
				want = append(want, verdict{http.StatusRequestEntityTooLarge, 0})
				break
			}
			if size < replBatchFixed+qlen {
				want = append(want, verdict{http.StatusBadRequest, 0})
				break
			}
			// The batch, and what one append may cost: framelog sizes a
			// payload buffer on a frame header's word up to 1 MiB.
			budget += uint64(size) + 1<<20 + 16<<10
			if len(rest) < 4+size {
				break // torn: no verdict, the loop just ends
			}
			query, batch := rest[replBatchHeader:replBatchHeader+qlen], rest[replBatchHeader+qlen:4+size]
			if string(query) != "Q12" {
				want = append(want, verdict{http.StatusBadRequest, 0})
				break
			}
			// The reference tenant is remote, like the one under test.
			if kind > replSync {
				want = append(want, verdict{http.StatusBadRequest, 0})
				break
			}
			next, err := ref.store.AppendReplicaFrames("Q12", from, batch, kind == replSync)
			switch {
			case errors.Is(err, histstore.ErrReplicaGap):
				want = append(want, verdict{http.StatusConflict, next})
			case err != nil:
				want = append(want, verdict{http.StatusInternalServerError, next})
			default:
				want = append(want, verdict{http.StatusOK, next})
			}
			if err != nil {
				break
			}
			rest = rest[4+size:]
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Fatalf("serving %d bytes allocated %d, want ≤ %d", len(data), grew, budget)
		}

		var got []verdict
		for acks := conn.acks.Bytes(); len(acks) > 0; {
			if len(acks) < replAckHeader {
				t.Fatalf("torn ack: % x", acks)
			}
			v := verdict{int(binary.LittleEndian.Uint16(acks)), binary.LittleEndian.Uint64(acks[4:])}
			mlen := int(binary.LittleEndian.Uint16(acks[2:]))
			if (v.status == http.StatusOK) != (mlen == 0) || len(acks) < replAckHeader+mlen {
				t.Fatalf("ack %+v carries %d bytes of text (%d left)", v, mlen, len(acks)-replAckHeader)
			}
			got = append(got, v)
			acks = acks[replAckHeader+mlen:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("acks %+v, want %+v", got, want)
		}
		for _, tn := range []*tenant{tn, ref} {
			if err := tn.store.Close(); err != nil {
				t.Fatal(err)
			}
		}
		names, _ := filepath.Glob(filepath.Join(refDir, "Q12", "*"))
		replica, _ := filepath.Glob(filepath.Join(dir, "Q12", "*"))
		if len(replica) != len(names) {
			t.Fatalf("replica has files %v, the reference %v", replica, names)
		}
		for _, name := range names {
			wantBytes, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := os.ReadFile(filepath.Join(dir, "Q12", filepath.Base(name)))
			if err != nil || !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s: replica holds %d bytes (%v), the reference %d", filepath.Base(name), len(gotBytes), err, len(wantBytes))
			}
		}
		promoted, err := histstore.Open(dir, histstore.Options{Retain: historyRetain})
		if err != nil {
			t.Fatal(err)
		}
		defer promoted.Close()
		h, err := promoted.OpenHistory("Q12", 2, []string{"time", "money"})
		if errors.Is(err, core.ErrNonFinite) {
			t.Fatalf("the replica stored a frame History.Append refuses: %v", err)
		}
		if err != nil {
			return // a replica a takeover refuses loads nothing
		}
		for i := h.Base(); i < h.Len(); i++ {
			o := h.At(i)
			for _, v := range append(append([]float64(nil), o.X...), o.Costs...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("a takeover loaded observation %d = %+v", i, o)
				}
			}
		}
	})
}

// nanFrame is a WAL frame of seq in walFrames' shape whose first cost
// is NaN: its CRC holds, its value is refused.
func nanFrame(seq uint64) []byte {
	b, at := framelog.Begin(nil)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = binary.LittleEndian.AppendUint16(b, 2)
	for _, v := range []float64{float64(seq), 1, math.NaN(), 3} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return framelog.Finish(b, at)
}
