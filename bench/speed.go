package main

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// The box is a few vCPUs of a shared host, and how fast it runs a given
// piece of code drifts by a fifth and more over seconds to minutes — the
// host's clock, the core's other hyperthread, the neighbours' use of the
// caches — with no steal reported: a whole run of the same code reads
// fast or slow, and no estimator over the rounds of one run sees it. A
// fixed request timed before and after every round and every boot does:
// the program's round trips followed it round by round, and dividing
// each round by its reading took the spread of ten runs' median round
// trip from 1.3–32 % to 0.3–9.5 % (README, "Why timings are scaled to the
// box's speed").

// referenceUs is the speed every gated timing is scaled to: the median
// round trip of the yardstick request on the box this benchmark was
// written on when nothing disturbs it. It is frozen; changing it
// rescales every timing.
const referenceUs = 12.5

// yardstickTrips is how many round trips one reading takes the median of.
const yardstickTrips = 500

// yardstick is the fixed request: a POST the size of a submit, sent by
// the benchmark's own client over loopback to a net/http server of the
// benchmark's own whose handler reads the body and answers 400 bytes.
// It runs no code of the program under test, so no change to the
// program moves it, and it pays for what a request of any workload pays
// for whatever the program does: system calls, the loopback, net/http,
// the Go scheduler, allocation.
type yardstick struct {
	n   *node
	c   *client
	raw []byte
	rtt [yardstickTrips]float64
}

func newYardstick() (*yardstick, error) {
	n, err := listen("yardstick")
	if err != nil {
		return nil, err
	}
	reply := make([]byte, 400)
	for i := range reply {
		reply[i] = 'a' + byte(i%26)
	}
	var echo http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the client sent it whole before it reads
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply) // a failed write fails the client's read
	})
	n.late.Store(&echo)
	spec := encodeSubmit("yardstick", "Q12", [2]float64{1, 1})
	return &yardstick{n: n, c: newClient(nil), raw: spec.raw}, nil
}

func (y *yardstick) close() error {
	y.c.close()
	err := y.n.hs.Close()
	<-y.n.served
	return err
}

// read returns the median round trip of the yardstick request, in µs.
func (y *yardstick) read() (float64, error) {
	for i := range y.rtt {
		began := time.Now()
		status, _, _, err := y.c.roundTrip(y.n.addr, y.raw)
		y.rtt[i] = float64(time.Since(began)) / 1e3
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("yardstick request: status %d, %v", status, err)
		}
	}
	return median(y.rtt[:]), nil
}

// slowdown is how many times slower than the reference speed the box
// ran between two readings.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / referenceUs
}
