package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndGet(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(3)
	s.Counter("a").Add(4)
	s.Counter("b").Inc()
	if s.Get("a") != 7 {
		t.Fatalf("a = %d, want 7", s.Get("a"))
	}
	if s.Get("b") != 1 {
		t.Fatalf("b = %d, want 1", s.Get("b"))
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
}

func TestNamesInsertionOrder(t *testing.T) {
	s := NewSet()
	for _, n := range []string{"z", "a", "m", "a"} { // no duplicate "a"
		s.Counter(n).Inc()
	}
	names := s.Names()
	want := []string{"z", "a", "m"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	var visited []string
	s.ForEach(func(n string, _ int64) { visited = append(visited, n) })
	if strings.Join(visited, ",") != "z,a,m" {
		t.Fatalf("ForEach visited %v, want %v", visited, want)
	}
	names[0] = "changed"
	if s.Names()[0] != "z" {
		t.Fatal("Names returned the set's own slice")
	}
}

func TestCounterGauge(t *testing.T) {
	s := NewSet()
	c := s.Counter("g")
	c.Add(5)
	c.Set(2)
	if c.Value() != 2 || s.Get("g") != 2 {
		t.Fatalf("gauge = %d (Get %d), want 2", c.Value(), s.Get("g"))
	}
}

func TestDumpSorted(t *testing.T) {
	s := NewSet()
	s.Counter("zz").Add(1)
	s.Counter("aa").Add(2)
	var b strings.Builder
	s.Dump(&b)
	out := b.String()
	if strings.Index(out, "aa") > strings.Index(out, "zz") {
		t.Fatalf("dump not sorted:\n%s", out)
	}
}

// Property: a sequence of Adds to one counter sums exactly.
func TestAddSumsProperty(t *testing.T) {
	f := func(vals []int16) bool {
		s := NewSet()
		var want int64
		for _, v := range vals {
			s.Counter("x").Add(int64(v))
			want += int64(v)
		}
		return s.Get("x") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
