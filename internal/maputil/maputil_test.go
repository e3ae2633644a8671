package maputil

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 3, "a": 1, "b": 2}
	want := []string{"a", "b", "c"}
	for i := 0; i < 10; i++ {
		if got := SortedKeys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[int]string{}); len(got) != 0 {
		t.Fatalf("SortedKeys(empty) = %v, want empty", got)
	}
}
