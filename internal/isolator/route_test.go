package isolator

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

func coords(pairs ...int) []noc.Coord {
	out := make([]noc.Coord, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, noc.Coord{X: pairs[i], Y: pairs[i+1]})
	}
	return out
}

func TestVerifyRouteAccepts2x2(t *testing.T) {
	if err := VerifyRoute(Topology{2, 2}, coords(0, 0, 1, 0, 0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Translated rectangle is fine.
	if err := VerifyRoute(Topology{2, 2}, coords(3, 1, 4, 1, 3, 2, 4, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRouteRejects1x4ForA2x2Task(t *testing.T) {
	// The paper's example attack: right core count, wrong shape.
	err := VerifyRoute(Topology{2, 2}, coords(0, 0, 1, 0, 2, 0, 3, 0))
	if err == nil {
		t.Fatal("1x4 allocation accepted for a 2x2 task")
	}
	if _, ok := err.(*RouteError); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestVerifyRouteOrientationAllowed(t *testing.T) {
	// A 2x1 task fits a 1x2 allocation (transposed rectangle).
	if err := VerifyRoute(Topology{2, 1}, coords(0, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRouteRejectsWrongCountDuplicatesAndHoles(t *testing.T) {
	if VerifyRoute(Topology{2, 2}, coords(0, 0, 1, 0)) == nil {
		t.Fatal("short allocation accepted")
	}
	if VerifyRoute(Topology{2, 1}, coords(0, 0, 0, 0)) == nil {
		t.Fatal("duplicate core accepted")
	}
	// L-shape: 3 cores in a 2x2 bounding box plus a far one -> not a
	// rectangle.
	if VerifyRoute(Topology{2, 2}, coords(0, 0, 1, 0, 0, 1, 2, 2)) == nil {
		t.Fatal("non-rectangular allocation accepted")
	}
	if VerifyRoute(Topology{0, 2}, coords()) == nil {
		t.Fatal("degenerate topology accepted")
	}
}

// Property: any true WxH rectangle anywhere in the plane verifies, in
// any listing order; removing one core or displacing one corner breaks
// it.
func TestVerifyRouteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Intn(3) + 1
		h := rng.Intn(3) + 1
		ox := rng.Intn(5)
		oy := rng.Intn(5)
		var cs []noc.Coord
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				cs = append(cs, noc.Coord{X: ox + x, Y: oy + y})
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		if VerifyRoute(Topology{w, h}, cs) != nil {
			return false
		}
		if len(cs) > 1 {
			// Drop one -> wrong count.
			if VerifyRoute(Topology{w, h}, cs[1:]) == nil {
				return false
			}
			// Displace one far away -> not contiguous.
			bad := make([]noc.Coord, len(cs))
			copy(bad, cs)
			bad[0] = noc.Coord{X: ox + 50, Y: oy + 50}
			if VerifyRoute(Topology{w, h}, bad) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
