package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Spans of one batch share its
// id; Parent is the ID of the span that caused this one (0: a root).
type span struct {
	ID      int       `json:"id"`
	Parent  int       `json:"parent"`
	Name    string    `json:"name"`
	Episode int       `json:"episode"`
	Batch   int       `json:"batch"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Phone   int       `json:"phone,omitempty"`
	Job     int       `json:"job,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs thread it through unconditionally.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID for children to name.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// selfTimes is each span name's total duration minus the part its
// children cover — the time a layer spent itself.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End.Sub(s.Start)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		d := s.End.Sub(s.Start) - covered[s.ID]
		if d < 0 {
			d = 0 // parallel children (partitions) cover more than wall time
		}
		self[s.Name] += d
	}
	return self
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
