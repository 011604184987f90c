package rnr

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// TestWakeFlagMarksExternalInput: every input outside OnCycle that can
// move Wakeup marks the flag bound by BindWakeFlag — a structure read in
// replay (Cur Struct Read paces the replay), a metadata completion, a
// marker and a restore. A structure read while recording does not:
// Wakeup is WakeupNever then whatever the count.
func TestWakeFlagMarksExternalInput(t *testing.T) {
	mb := &metaBackend{latency: 10}
	e := buildRecorded(t, mb, 256, 64)
	flag := make([]uint64, 1)
	e.BindWakeFlag(mem.NewWakeFlag(flag, 0))
	sets := func(what string, input func()) {
		t.Helper()
		flag[0] = 0
		input()
		if flag[0] == 0 {
			t.Errorf("%s did not mark the wake flag", what)
		}
	}
	structRead := func() { e.PreAccess(mem.NewRequest(mem.ReqLoad, 0x100000, 1, 0, 0)) }

	sets("PreAccess in replay", structRead)
	e.OnCycle(1, func(mem.Addr) bool { return true }) // issues metadata reads
	if len(mb.inflight) == 0 {
		t.Fatal("OnCycle issued no metadata read")
	}
	sets("a metadata completion", func() { mb.Tick(20) })
	saved := e.Save()
	sets("HandleMarker", func() { e.HandleMarker(trace.Mark(trace.MarkPause, 0, 0, 0), 30) })
	sets("Restore", func() { e.Restore(saved) })

	sets("HandleMarker", func() { e.HandleMarker(trace.Mark(trace.MarkRecordStart, 0, 0, 0), 40) })
	flag[0] = 0
	structRead()
	if flag[0] != 0 {
		t.Error("PreAccess while recording marked the wake flag")
	}
	if w := e.Wakeup(40); w != mem.WakeupNever {
		t.Errorf("Wakeup while recording = %d, want WakeupNever", w)
	}
}
