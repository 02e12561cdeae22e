package trace

import (
	"strings"
	"testing"

	"gemini/internal/simclock"
)

func TestLogRecordsInOrder(t *testing.T) {
	now := simclock.Time(0)
	l := NewLog(func() simclock.Time { return now })
	l.Add("a", "start", "begin %d", 1)
	now = 5
	l.Add("b", "step", "middle")
	now = 9
	l.Add("a", "start", "begin %d", 2)
	if len(l.Events()) != 3 {
		t.Fatalf("len %d, want 3", len(l.Events()))
	}
	starts := l.Filter("start")
	if len(starts) != 2 || starts[0].Detail != "begin 1" || starts[1].Detail != "begin 2" {
		t.Fatalf("Filter = %+v", starts)
	}
	last, ok := l.Last("start")
	if !ok || last.At != 9 {
		t.Fatalf("Last = %+v %v", last, ok)
	}
	if _, ok := l.Last("absent"); ok {
		t.Fatal("Last invented an event")
	}
}

func TestLogWriteTo(t *testing.T) {
	l := NewLog(nil)
	l.Add("subj", "kind", "detail here")
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"subj", "kind", "detail here"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
	if len(l.Events()) != 1 {
		t.Fatal("Events length wrong")
	}
}
