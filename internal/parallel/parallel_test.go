package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// jobNames returns n job names "job-0" … "job-(n-1)".
func jobNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	return names
}

// TestRunAllPreservesOrder: results come back in index order at any
// worker count, including more workers than jobs.
func TestRunAllPreservesOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 8, 32, n + 5} {
		got, err := Map(workers, jobNames(n), func(i int) (int, error) {
			return i * 2, nil
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d: result %d = %d, want %d (order not preserved)", workers, i, v, i*2)
			}
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	calls := 0
	got, err := Map(4, nil, func(int) (int, error) { return 0, nil },
		func(int, int) { calls++ })
	if err != nil || len(got) != 0 || calls != 0 {
		t.Fatalf("empty batch: %d results, err %v, %d progress calls", len(got), err, calls)
	}
}

func TestWorkerBound(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int32
	_, err := Map(workers, jobNames(64), func(int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond) // give siblings a chance to overlap
		cur.Add(-1)
		return struct{}{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}

// TestPanicBecomesErrorResult: a panic becomes the error of the job
// that panicked, named by it and carrying the panic value and stack;
// its siblings still run.
func TestPanicBecomesErrorResult(t *testing.T) {
	var ran atomic.Int32
	_, err := Map(2, []string{"ok-0", "boom", "ok-2"}, func(i int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		ran.Add(1)
		return i, nil
	}, nil)
	if err == nil {
		t.Fatal("panicking job produced no error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "boom: panicked: kaboom") {
		t.Fatalf("panic error not named by its job: %q", msg)
	}
	if !strings.Contains(msg, "goroutine ") {
		t.Fatalf("panic error carries no stack: %q", msg)
	}
	if ran.Load() != 2 {
		t.Fatalf("%d healthy jobs ran, want 2", ran.Load())
	}
}

// TestFirstErrorOrder: when several jobs fail, the lowest index wins,
// even if a later job failed first.
func TestFirstErrorOrder(t *testing.T) {
	errA := errors.New("a")
	thirdFailed := make(chan struct{})
	_, err := Map(3, []string{"ok", "second", "third"}, func(i int) (int, error) {
		switch i {
		case 1:
			<-thirdFailed
			return 0, errA
		case 2:
			defer close(thirdFailed)
			return 0, errors.New("b")
		}
		return i, nil
	}, nil)
	if !errors.Is(err, errA) || !strings.HasPrefix(err.Error(), "second: ") {
		t.Fatalf("Map error = %v, want second's", err)
	}
}
