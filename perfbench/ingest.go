package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"streamlake"
	"streamlake/internal/workload/dpi"
)

// Ingest workload sizes: messages per episode, the mean virtual
// interarrival of the open-loop schedule, and the consumer group's
// cadence. The interarrival offers about 0.6 of the send path's
// capacity, so most sends queue a little and the latency percentiles
// depend on the seed's arrivals, not only on the cost model's
// constants. The group trails the producer by ingestLag messages, so
// its polls read sealed slices back through plog rather than the open
// in-memory buffers.
const (
	ingestMessages     = 40_000
	ingestInterarrival = 34 * time.Microsecond
	ingestLag          = 4096
	ingestPollEvery    = 128
	ingestPollMax      = 128
	ingestTopic        = "dpi_raw"
	ingestStreams      = 8
)

// ingest sends DPI packets keyed by subscriber to one topic with no
// conversion while one consumer group tails it.
type ingest struct {
	keys, values [][]byte
	arrivals     []time.Duration
	userBytes    int64
}

func newIngest(seed uint64, n int) (*ingest, error) {
	g := dpi.NewGenerator(seed)
	w := &ingest{
		keys:     make([][]byte, n),
		values:   make([][]byte, n),
		arrivals: poissonArrivals(seed^arrivalSalt, n, ingestInterarrival),
	}
	for i := 0; i < n; i++ {
		k, v, err := g.Packet()
		if err != nil {
			return nil, fmt.Errorf("generate packet %d: %w", i, err)
		}
		w.keys[i], w.values[i] = k, v
		w.userBytes += int64(len(k) + len(v))
	}
	return w, nil
}

func (w *ingest) opName() string { return "acked message" }

func (w *ingest) episode() episode { return &ingestEpisode{w: w} }

// position is where an acked message landed.
type position struct {
	stream int
	offset int64
}

type ingestEpisode struct {
	w      *ingest
	l      *streamlake.Lake
	prod   *streamlake.Producer
	cons   *streamlake.Consumer
	acked  []position // by input index; stream -1 = not acked
	polled []streamlake.Message
	writes []time.Duration
	reads  []time.Duration
}

func (e *ingestEpisode) lake() *streamlake.Lake { return e.l }

func (e *ingestEpisode) setup(p *probe) error {
	l, err := streamlake.Open(streamlake.Config{Seed: lakeSeed})
	if err != nil {
		return err
	}
	e.l = l
	if err := l.CreateTopic(streamlake.TopicConfig{Name: ingestTopic, StreamNum: ingestStreams}); err != nil {
		return err
	}
	e.prod = l.Producer("collector")
	e.cons = l.Consumer("tail")
	if err := e.cons.Subscribe(ingestTopic); err != nil {
		return err
	}
	n := len(e.w.keys)
	e.acked = make([]position, n)
	e.polled = make([]streamlake.Message, 0, n)
	e.writes = make([]time.Duration, 0, n)
	e.reads = make([]time.Duration, 0, n/ingestPollEvery+16)
	return nil
}

func (e *ingestEpisode) run(p *probe) (attempted, failed int, err error) {
	c := &client{clock: e.l.Clock()}
	base := c.clock.Now()
	for i := range e.w.keys {
		attempted++
		msg, lat, err := c.send(p, e.l, e.prod, ingestTopic, e.w.keys[i], e.w.values[i], base+e.w.arrivals[i])
		if err != nil {
			failed++
			e.acked[i] = position{stream: -1}
			continue
		}
		e.acked[i] = position{msg.Stream, msg.Offset}
		e.writes = append(e.writes, lat)
		if i+1 > ingestLag && (i+1)%ingestPollEvery == 0 {
			if _, err := e.poll(p); err != nil {
				return attempted, failed, err
			}
		}
	}
	// Drain: the group catches up with the last sends.
	for {
		n, err := e.poll(p)
		if err != nil {
			return attempted, failed, err
		}
		if n == 0 {
			return attempted, failed, nil
		}
	}
}

// poll runs one consumer poll. The consumer is an application of its
// own, so its polls do not hold up the producer's schedule.
func (e *ingestEpisode) poll(p *probe) (int, error) {
	m := p.begin()
	msgs, cost, err := e.cons.Poll(ingestPollMax)
	p.end("streamsvc.poll", m, cost)
	if err != nil {
		return 0, err
	}
	e.reads = append(e.reads, cost)
	e.polled = append(e.polled, msgs...)
	return len(msgs), nil
}

func (e *ingestEpisode) verify() (figures, error) {
	fig := figures{writes: e.writes, reads: e.reads, userBytes: e.w.userBytes}
	if err := checkPolledOnce(e.acked, e.polled, e.w.keys, e.w.values); err != nil {
		return fig, err
	}
	lag, err := e.cons.Lag(ingestTopic)
	if err != nil {
		return fig, err
	}
	if lag != 0 {
		return fig, fmt.Errorf("consumer lag %d after the drain, want 0", lag)
	}
	if n := e.l.Obs().Snapshot().Counter("streamobj_slice_flushes_total"); n == 0 {
		return fig, errors.New("no slice flushes: the produce path never reached plog")
	}
	return fig, nil
}

// checkPolledOnce asserts every acked message was polled back exactly
// once at the (stream, offset) its ack named, carrying the bytes sent.
func checkPolledOnce(acked []position, polled []streamlake.Message, keys, values [][]byte) error {
	at := make(map[position]int, len(acked))
	for i, pos := range acked {
		if pos.stream >= 0 {
			at[pos] = i
		}
	}
	seen := make([]bool, len(acked))
	for _, m := range polled {
		i, ok := at[position{m.Stream, m.Offset}]
		if !ok {
			return fmt.Errorf("polled stream %d offset %d, which no ack named", m.Stream, m.Offset)
		}
		if seen[i] {
			return fmt.Errorf("message %d polled twice (stream %d offset %d)", i, m.Stream, m.Offset)
		}
		seen[i] = true
		if !bytes.Equal(m.Key, keys[i]) || !bytes.Equal(m.Value, values[i]) {
			return fmt.Errorf("message %d polled back with different bytes", i)
		}
	}
	for i, pos := range acked {
		if pos.stream >= 0 && !seen[i] {
			return fmt.Errorf("acked message %d (stream %d offset %d) never polled", i, pos.stream, pos.offset)
		}
	}
	return nil
}
