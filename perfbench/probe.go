package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"streamlake"
	"streamlake/internal/obs"
)

// probe records the benchmark's own spans around its calls into each
// layer: wall time, virtual cost, call count and heap bytes per call.
// Traced sends also fold the lake's produce span tree into virtual self
// time per module. A nil probe records nothing, which is the plain run.
type probe struct {
	spans map[string]*spanStat
	// self holds, per module, the virtual self time of each traced send.
	self   map[string][]time.Duration
	allocs []metrics.Sample
	extra  map[string]float64 // span-specific work counts (rows, bytes)
}

// spanStat accumulates one benchmark span.
type spanStat struct {
	calls   int64
	wall    time.Duration
	virtual time.Duration
	bytes   uint64
}

func newProbe() *probe {
	return &probe{
		spans:  map[string]*spanStat{},
		self:   map[string][]time.Duration{},
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		extra:  map[string]float64{},
	}
}

// mark is a span's start.
type mark struct {
	wall  time.Time
	bytes uint64
}

// heapAllocated reads the cumulative heap bytes allocated. The runtime
// counts an allocation span at a time, so single readings are coarse;
// sums over many calls are exact enough for bytes per call.
func (p *probe) heapAllocated() uint64 {
	metrics.Read(p.allocs)
	return p.allocs[0].Value.Uint64()
}

func (p *probe) begin() mark {
	if p == nil {
		return mark{}
	}
	return mark{wall: time.Now(), bytes: p.heapAllocated()}
}

// end closes the span name opened at m, charging it the call's virtual
// cost.
func (p *probe) end(name string, m mark, virtual time.Duration) {
	if p == nil {
		return
	}
	wall := time.Since(m.wall)
	bytes := p.heapAllocated() - m.bytes
	s := p.spans[name]
	if s == nil {
		s = &spanStat{}
		p.spans[name] = s
	}
	s.calls++
	s.wall += wall
	s.virtual += virtual
	s.bytes += bytes
}

// add counts work a span did (rows converted, bytes verified).
func (p *probe) add(name string, v float64) {
	if p != nil {
		p.extra[name] += v
	}
}

// send produces one message, traced when the probe is on: the lake's
// own produce spans hang under a root the benchmark opens, and are
// folded into per-module self time after the call returns.
func (p *probe) send(l *streamlake.Lake, pr *streamlake.Producer, topic string, key, value []byte) (streamlake.Message, time.Duration, error) {
	if p == nil {
		return pr.Send(topic, key, value)
	}
	m := p.begin()
	root := l.Tracer().Start("bench.send")
	msg, cost, err := pr.SendSpan(topic, key, value, root)
	p.end("streamsvc.send", m, cost)
	if err == nil {
		p.fold(root.JSON())
	}
	return msg, cost, err
}

// spanModule maps a lake span name to the module it measures.
func spanModule(name string) string {
	switch {
	case strings.HasPrefix(name, "bus."):
		return "bus"
	case strings.HasPrefix(name, "streamobj."), strings.HasPrefix(name, "slice."), strings.HasPrefix(name, "ack."):
		return "streamobj"
	case strings.HasPrefix(name, "plog."):
		return "plog"
	case strings.HasPrefix(name, "pool."):
		return "pool"
	}
	return ""
}

// foldModules are the modules a produce's self time is reported for.
var foldModules = []string{"bus", "streamobj", "plog", "pool"}

// fold adds one send's per-module virtual self time.
func (p *probe) fold(root obs.SpanJSON) {
	per := map[string]time.Duration{}
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		if mod := spanModule(s.Name); mod != "" {
			per[mod] += selfTime(s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, c := range root.Children {
		walk(c)
	}
	for _, mod := range foldModules {
		p.self[mod] = append(p.self[mod], per[mod])
	}
}

// selfTime is a span's duration minus the part of it its children
// cover. Child offsets are relative to the parent's start; parallel
// children overlap and are counted once.
func selfTime(s obs.SpanJSON) time.Duration {
	dur := s.DurNs
	if dur <= 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := max(c.OffNs, 0), min(c.OffNs+c.DurNs, dur)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(dur - covered)
}
