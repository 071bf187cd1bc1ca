package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
	"streamlake/internal/workload/dpi"
)

// ETL workload sizes: rounds per episode and packets per round, the
// mean virtual interarrival of the packets, how far each round moves
// the clock (past the one-hour demotion age), and the scrub period. The
// split offset is out of reach, so only ConvertNow converts.
const (
	etlRounds         = 50
	etlBatch          = 400
	etlInterarrival   = 34 * time.Microsecond
	etlRoundAdvance   = 61 * time.Minute
	etlScrubEvery     = 10
	etlTopic          = "dpi_packets"
	etlTable          = "dpi_norm"
	etlStreams        = 4
	etlDAUDay         = 0
	etlNeverAutoSplit = 1 << 40
)

// etl is the paper's Figure 13 pipeline: DPI packets go to a topic that
// converts them into a province-partitioned table through
// dpi.Normalize, keeping only the table copy, while tiering demotes the
// cold files to HDD and the DAU query runs after every conversion.
type etl struct {
	keys, values [][]byte
	arrivals     []time.Duration // per packet, offset from its round's start
	want         []map[string]float64
	userBytes    int64
}

func newETL(seed uint64, rounds, batch int) (*etl, error) {
	g := dpi.NewGenerator(seed)
	n := rounds * batch
	w := &etl{keys: make([][]byte, n), values: make([][]byte, n)}
	acc := map[string]float64{}
	for r := 0; r < rounds; r++ {
		// The packets are dpi.Generator.Packet's, built here from RawRow
		// so the raw rows stay at hand for the reference.
		rows := make([]colfile.Row, batch)
		for j := range rows {
			i := r*batch + j
			rows[j] = g.RawRow()
			v, err := rowcodec.Encode(dpi.RawSchema, []colfile.Row{rows[j]})
			if err != nil {
				return nil, fmt.Errorf("encode packet %d: %w", i, err)
			}
			w.keys[i] = []byte(fmt.Sprintf("u%d", rows[j][3].Int))
			w.values[i] = v
			w.userBytes += int64(len(w.keys[i]) + len(v))
		}
		dauCounts(acc, rows, etlDAUDay)
		snap := make(map[string]float64, len(acc))
		for k, v := range acc {
			snap[k] = v
		}
		w.want = append(w.want, snap)
		w.arrivals = append(w.arrivals, poissonArrivals(seed^arrivalSalt+uint64(r), batch, etlInterarrival)...)
	}
	return w, nil
}

func (w *etl) opName() string { return "packet produced and converted" }

func (w *etl) episode() episode { return &etlEpisode{w: w} }

// normalize is the topic's Transform: decode the raw packet and apply
// dpi.Normalize.
func normalize(_, value []byte) (colfile.Row, bool) {
	_, rows, err := rowcodec.Decode(value)
	if err != nil || len(rows) != 1 {
		return nil, false
	}
	return dpi.Normalize(rows[0])
}

type etlEpisode struct {
	w          *etl
	l          *streamlake.Lake
	prod       *streamlake.Producer
	results    []*streamlake.Result
	writes     []time.Duration
	reads      []time.Duration
	migrations int
	scrubbed   int64
	freed      int64
}

func (e *etlEpisode) lake() *streamlake.Lake { return e.l }

func (e *etlEpisode) setup(p *probe) error {
	l, err := streamlake.Open(streamlake.Config{Seed: lakeSeed})
	if err != nil {
		return err
	}
	e.l = l
	err = l.CreateTopic(streamlake.TopicConfig{
		Name: etlTopic, StreamNum: etlStreams,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: etlTable, TablePath: "/lake/" + etlTable,
			TableSchema: dpi.NormSchema, PartitionColumn: "province",
			SplitOffset: etlNeverAutoSplit, DeleteMsg: true, Transform: normalize,
		},
	})
	if err != nil {
		return err
	}
	e.prod = l.Producer("collector")
	e.results = make([]*streamlake.Result, len(e.w.want))
	e.writes = make([]time.Duration, 0, len(e.w.keys))
	e.reads = make([]time.Duration, 0, len(e.w.want))
	return nil
}

func (e *etlEpisode) run(p *probe) (attempted, failed int, err error) {
	c := &client{clock: e.l.Clock()}
	batch := len(e.w.keys) / len(e.w.want)
	dau := dpi.DAUQuery(etlTable, etlDAUDay)
	for r := range e.w.want {
		base := c.clock.Now()
		for j := 0; j < batch; j++ {
			i := r*batch + j
			attempted++
			_, lat, err := c.send(p, e.l, e.prod, etlTopic, e.w.keys[i], e.w.values[i], base+e.w.arrivals[i])
			if err != nil {
				failed++
				continue
			}
			e.writes = append(e.writes, lat)
		}

		m := p.begin()
		conv, cost, err := e.l.ConvertNow(etlTopic)
		p.end("convert", m, cost)
		if err != nil {
			return attempted, failed, fmt.Errorf("round %d: convert: %w", r, err)
		}
		p.add("convert.rows", float64(conv.Messages))
		e.freed += conv.FreedLog
		c.clock.Advance(cost)

		m = p.begin()
		res, cost, err := e.l.QueryCost(dau)
		p.end("query", m, cost)
		if err != nil {
			return attempted, failed, fmt.Errorf("round %d: DAU query: %w", r, err)
		}
		e.results[r] = res
		e.reads = append(e.reads, cost)
		c.clock.Advance(cost)

		// Let the round's files age past the demotion threshold, then tier.
		c.clock.Advance(etlRoundAdvance)
		m = p.begin()
		migs, cost := e.l.RunTiering()
		p.end("tiering", m, cost)
		p.add("tiering.migrations", float64(len(migs)))
		e.migrations += len(migs)
		c.clock.Advance(cost)

		if (r+1)%etlScrubEvery == 0 {
			m = p.begin()
			rep, err := e.l.RunScrub()
			p.end("scrub", m, rep.Elapsed)
			if err != nil {
				return attempted, failed, fmt.Errorf("round %d: scrub: %w", r, err)
			}
			p.add("scrub.bytes_verified", float64(rep.BytesScanned))
			e.scrubbed += rep.BytesScanned
		}
	}
	return attempted, failed, nil
}

func (e *etlEpisode) verify() (figures, error) {
	fig := figures{writes: e.writes, reads: e.reads, userBytes: e.w.userBytes}
	h := fnv.New64a()
	for r, res := range e.results {
		if err := checkAnswer(res, e.w.want[r], true); err != nil {
			return fig, fmt.Errorf("round %d DAU: %w", r, err)
		}
		fmt.Fprint(h, res.Rows)
	}
	fig.digest = h.Sum64()
	switch {
	case e.migrations == 0:
		return fig, errors.New("tiering migrated nothing")
	case e.l.Obs().Snapshot().Counter(`pool_read_bytes_total{pool="hdd"}`) == 0:
		return fig, errors.New("no bytes were read back from the HDD pool")
	case e.scrubbed == 0:
		return fig, errors.New("scrub verified no bytes")
	case e.freed == 0:
		return fig, errors.New("conversion reclaimed no stream slices")
	}
	return fig, nil
}
