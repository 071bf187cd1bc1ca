package main

import (
	"math"
	"time"

	"streamlake"
	"streamlake/internal/sim"
)

// poissonArrivals draws n arrival offsets with exponential interarrival
// times of the given mean: the open-loop schedule of independent users.
func poissonArrivals(seed uint64, n int, mean time.Duration) []time.Duration {
	rng := sim.NewRNG(seed)
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += -math.Log(1-rng.Float64()) * float64(mean)
		out[i] = time.Duration(t)
	}
	return out
}

// client is the single load generator's timeline in virtual time. A
// request is due at its arrival but starts only when the client is free,
// so a slow call delays every later one; a request's latency runs from
// its due time to its ack.
type client struct {
	clock *sim.Clock
	free  time.Duration
}

// send produces one message due at due and returns its latency: from
// due time to ack, including the wait for earlier sends.
func (c *client) send(p *probe, l *streamlake.Lake, pr *streamlake.Producer, topic string, key, value []byte, due time.Duration) (streamlake.Message, time.Duration, error) {
	start := max(due, c.free, c.clock.Now())
	c.clock.AdvanceTo(start)
	msg, cost, err := p.send(l, pr, topic, key, value)
	c.free = start + cost
	return msg, c.free - due, err
}
