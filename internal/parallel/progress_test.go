package parallel

import (
	"errors"
	"testing"
)

// TestOnProgressMonotone drives the progress callback from many workers
// and checks the documented contract: done rises 1..total, one call per
// job. The callback appends to a slice with no lock; under -race that
// proves the calls run on the caller's goroutine, never concurrently.
func TestOnProgressMonotone(t *testing.T) {
	const n = 200
	var seen []int
	_, err := Map(8, jobNames(n), func(i int) (int, error) { return i, nil },
		func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			seen = append(seen, done)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("seen[%d] = %d, want %d (not strictly increasing)", i, d, i+1)
		}
	}
}

// TestOnProgressWithErrors checks the callback still fires for failing
// and panicking jobs — progress counts completions, not successes.
func TestOnProgressWithErrors(t *testing.T) {
	calls := 0
	_, err := Map(1, []string{"ok", "err", "panic"}, func(i int) (int, error) {
		switch i {
		case 1:
			return 0, errors.New("boom")
		case 2:
			panic("bang")
		}
		return 1, nil
	}, func(done, total int) { calls++ })
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
	if err == nil || err.Error() != "err: boom" {
		t.Fatalf("Map error = %v, want the first failing job's", err)
	}
}
