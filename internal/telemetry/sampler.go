package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"sync"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// sampleRow is one cycle-stamped reading of every registered column.
type sampleRow struct {
	cycle uint64
	vals  []float64
}

// Sampler is a ring-buffered time-series collector. The column schema is
// frozen at the first sample (register probes before the run starts);
// when the ring fills, the oldest rows are overwritten and counted in
// Dropped.
type Sampler struct {
	mu      sync.Mutex
	cols    []string
	read    []func(cycle uint64) float64
	rows    []sampleRow
	head    int // index of the oldest row once the ring has wrapped
	wrapped bool
	dropped uint64
	frozen  bool
}

// ringCap bounds the retained samples; older ones are dropped.
const ringCap = 1 << 16

// sample polls every column and appends one row.
func (s *Sampler) sample(reg *Registry, cycle uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.frozen {
		s.cols, s.read = reg.columns()
		s.frozen = true
	}
	row := sampleRow{cycle: cycle, vals: make([]float64, len(s.read))}
	for i, fn := range s.read {
		v := fn(cycle)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		row.vals[i] = v
	}
	if len(s.rows) < ringCap {
		s.rows = append(s.rows, row)
		return
	}
	s.rows[s.head] = row
	s.head = (s.head + 1) % ringCap
	s.wrapped = true
	s.dropped++
}

// WriteJSONL emits the retained rows, oldest first, one JSON object per
// line: {"cycle":N,"<col>":v,...}. Values are finite by construction.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	n := len(s.rows)
	for i := 0; i < n; i++ {
		idx := i
		if s.wrapped {
			idx = (s.head + i) % n
		}
		row := s.rows[idx]
		buf := make([]byte, 0, 32+len(s.cols)*24)
		buf = append(buf, `{"cycle":`...)
		buf = strconv.AppendUint(buf, row.cycle, 10)
		for j, name := range s.cols {
			buf = append(buf, ',', '"')
			buf = append(buf, name...)
			buf = append(buf, '"', ':')
			buf = strconv.AppendFloat(buf, row.vals[j], 'g', -1, 64)
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
