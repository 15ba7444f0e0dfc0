package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestOffloadPolicyCellsPinned pins dyn's twelve (dataset, kernel) cells
// — hash partitioning, 8 memory nodes, scale 0.5, seed 42 — under the
// never, always and heuristic policies and three switch settings: no
// aggregation, aggregation with an unlimited buffer, and aggregation with
// a 4,096-entry buffer. Each cell executes once and prices nine ways. The
// summaries say how often the heuristic lands at or below the better
// static policy, and how far above it the worst cell lands: a change to
// the heuristic or to the movement model moves them on purpose, with the
// new figures in the same diff.
func TestOffloadPolicyCellsPinned(t *testing.T) {
	switches := []struct {
		name      string
		aggregate bool
		buffer    int64
	}{{"no aggregation", false, 0}, {"unlimited buffer", true, 0}, {"4096 entries", true, 4096}}
	policies := []sim.OffloadPolicy{sim.NeverOffload{}, sim.AlwaysOffload{}, runtime.Heuristic{}}
	cells := []struct {
		ds gen.Dataset
		kn string
		// want[s] is (never, always, heuristic) bytes under switches[s].
		want [3][3]int64
	}{
		{gen.Twitter7, "pagerank", [3][3]int64{{73822720, 21942720, 21942720}, {73822720, 9318080, 9318080}, {73822720, 17882240, 17882240}}},
		{gen.Twitter7, "pagerank-delta", [3][3]int64{{236035560, 67530560, 67933976}, {236035560, 25111520, 25154952}, {236035560, 53489088, 53669504}}},
		{gen.Twitter7, "bfs", [3][3]int64{{3675480, 1416960, 1568224}, {3675480, 592160, 497856}, {3675480, 1090272, 1383824}}},
		{gen.Twitter7, "cc", [3][3]int64{{7974792, 2403008, 2648448}, {7974792, 877808, 875712}, {7974792, 1855168, 2243088}}},
		{gen.ComLiveJournal, "pagerank", [3][3]int64{{21780640, 21094400, 21094400}, {21780640, 5242880, 5242880}, {21780640, 13168640, 13168640}}},
		{gen.ComLiveJournal, "pagerank-delta", [3][3]int64{{68695352, 69012048, 66725608}, {68695352, 18045488, 17811928}, {68695352, 43309504, 42847992}}},
		{gen.ComLiveJournal, "bfs", [3][3]int64{{1089032, 1524160, 1089032}, {1089032, 456992, 374888}, {1089032, 981728, 899624}}},
		{gen.ComLiveJournal, "cc", [3][3]int64{{3788656, 3788144, 3673352}, {3788656, 852976, 851560}, {3788656, 2320288, 2318872}}},
		{gen.WikiTalk, "pagerank", [3][3]int64{{7319680, 14893440, 7319680}, {7319680, 9829120, 7319680}, {7319680, 13446080, 7319680}}},
		{gen.WikiTalk, "pagerank-delta", [3][3]int64{{11616016, 22996880, 11616016}, {11616016, 14833328, 11771112}, {11616016, 20519584, 11616016}}},
		{gen.WikiTalk, "bfs", [3][3]int64{{338952, 728240, 338952}, {338952, 571552, 338952}, {338952, 660480, 338952}}},
		{gen.WikiTalk, "cc", [3][3]int64{{982576, 1817248, 982576}, {982576, 1272496, 982576}, {982576, 1634864, 982576}}},
	}
	summaries := []struct {
		within int
		worst  string
		ratio  string
	}{
		{9, "twitter7 bfs", "1.107"},
		{10, "wiki-talk pagerank-delta", "1.013"},
		{9, "twitter7 bfs", "1.269"},
	}

	cfg := Config{Scale: 0.5, Seed: 42}.withDefaults()
	var within [3]int
	var worst [3]float64
	var worstCell [3]string
	for i := 0; i < len(cells); {
		ds := cells[i].ds
		g, err := dataset(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		assign, topo, err := partitioned(cfg, g, 8, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		for ; i < len(cells) && cells[i].ds.Name == ds.Name; i++ {
			c := cells[i]
			k, err := kernels.ByName(c.kn)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			label := ds.Name + " " + c.kn
			for s, sw := range switches {
				tp := topo
				tp.SwitchBufferEntries = sw.buffer
				var got [3]int64
				for p, pol := range policies {
					run, err := (&sim.DisaggregatedNDP{Topo: tp, Policy: pol, InNetworkAggregation: sw.aggregate}).Price(trace)
					if err != nil {
						t.Fatal(err)
					}
					got[p] = run.TotalDataMovementBytes
				}
				if got != c.want[s] {
					t.Errorf("%s, %s: (never, always, heuristic) = %v, want %v", label, sw.name, got, c.want[s])
				}
				best := min(got[0], got[1])
				if got[2] <= best {
					within[s]++
				}
				if r := float64(got[2]) / float64(best); r > worst[s] {
					worst[s], worstCell[s] = r, label
				}
			}
		}
	}
	for s, want := range summaries {
		if within[s] != want.within || worstCell[s] != want.worst || fmt.Sprintf("%.3f", worst[s]) != want.ratio {
			t.Errorf("%s: heuristic at or below min(never, always) on %d/12 cells, worst %.3f (%s); want %d/12, worst %s (%s)",
				switches[s].name, within[s], worst[s], worstCell[s], want.within, want.ratio, want.worst)
		}
	}
}
