package experiments

import (
	"encoding/csv"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// numFunc reads column col of the row keyed by key ("64.2%" reads 64.2; a non-number, NaN).
type numFunc func(col string, key ...string) float64

// TestCommittedResultsShape pins relations, not digits, over the committed
// results/*.csv: a regeneration that moves a number passes, one that flips
// a reported finding fails. The rolling.csv relation guards warm start.
func TestCommittedResultsShape(t *testing.T) {
	for _, tc := range []struct {
		file, relation string
		holds          func(num numFunc, rows [][]string) bool
	}{
		{"fig7.csv", "at k=7 domain ≥ auto ≥ single", func(num numFunc, _ [][]string) bool {
			return num("domain", "7") >= num("auto", "7") && num("auto", "7") >= num("single", "7")
		}},
		{"fig7.csv", "domain peaks at k ≤ 17", func(num numFunc, rows [][]string) bool {
			best, top := "", math.Inf(-1)
			for _, r := range rows {
				if v := num("domain", r[0]); v > top {
					best, top = r[0], v
				}
			}
			k, err := strconv.Atoi(best)
			return err == nil && k <= 17
		}},
		{"table3.csv", "per window darkvec ≥ ip2vec in accuracy and coverage", func(num numFunc, _ [][]string) bool {
			ge := func(col, w string) bool { return num(col, "darkvec", w) >= num(col, "ip2vec", w) }
			return ge("accuracy", "5d") && ge("coverage", "5d") && ge("accuracy", "30d") && ge("coverage", "30d")
		}},
		{"table3.csv", "at 5d ip2vec > dante; 30d dante accuracy not a number", func(num numFunc, _ [][]string) bool {
			return num("accuracy", "ip2vec", "5d") > num("accuracy", "dante", "5d") && math.IsNaN(num("accuracy", "dante", "30d"))
		}},
		{"table4.csv", "macro F over the nine named classes: domain ≥ auto ≥ single", func(num numFunc, rows [][]string) bool {
			macro := func(def string) float64 {
				sum, n := 0.0, 0
				for _, r := range rows {
					if r[0] != "unknown" && r[1] == def {
						sum, n = sum+num("f-score", r[0], def), n+1
					}
				}
				if n != 9 {
					return math.NaN()
				}
				return sum / 9
			}
			return macro("domain") >= macro("auto") && macro("auto") >= macro("single")
		}},
		{"table4.csv", "stretchoid F < 0.5 under single and auto, ≥ 0.9 under domain", func(num numFunc, _ [][]string) bool {
			f := func(def string) float64 { return num("f-score", "stretchoid", def) }
			return f("single") < 0.5 && f("auto") < 0.5 && f("domain") >= 0.9
		}},
		{"table5.csv", "≥ 7 distinct unknownN groups are some cluster's best-group-match (unknown2 is not)", func(_ numFunc, rows [][]string) bool {
			groups := map[string]bool{}
			for _, r := range rows {
				if g, _, _ := strings.Cut(r[4], "-"); strings.HasPrefix(g, "unknown") { // r[4]: best-group-match
					groups[g] = true
				}
			}
			return len(groups) >= 7
		}},
		{"ablation-deltat.csv", "10m–1h within 0.05, 4h and 12h below all three", func(num numFunc, _ [][]string) bool {
			flat := []float64{num("accuracy", "10m0s"), num("accuracy", "30m0s"), num("accuracy", "1h0m0s")}
			lo := slices.Min(flat)
			return slices.Max(flat)-lo <= 0.05 && num("accuracy", "4h0m0s") < lo && num("accuracy", "12h0m0s") < lo
		}},
		{"rolling.csv", "per window |warm − cold| accuracy ≤ 0.05, warm epochs ≤ cold", func(num numFunc, rows [][]string) bool {
			for _, r := range rows {
				if w := r[0]; !(math.Abs(num("accuracy", w, "warm")-num("accuracy", w, "cold")) <= 0.05 &&
					num("epochs", w, "warm") <= num("epochs", w, "cold")) {
					return false
				}
			}
			return true
		}},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		recs, cerr := csv.NewReader(strings.NewReader(string(data))).ReadAll()
		if err = errors.Join(err, cerr); err != nil || len(recs) < 2 {
			t.Fatalf("%s: %d records, %v", tc.file, len(recs), err)
		}
		rows := recs[1:]
		num := func(col string, key ...string) float64 {
			if ci := slices.Index(recs[0], col); ci >= 0 {
				for _, r := range rows {
					if slices.Equal(r[:len(key)], key) {
						v, err := strconv.ParseFloat(strings.TrimSuffix(r[ci], "%"), 64)
						if err != nil {
							return math.NaN()
						}
						return v
					}
				}
			}
			t.Fatalf("%s: no column %q in row %v", tc.file, col, key)
			return 0
		}
		if !tc.holds(num, rows) {
			t.Errorf("%s: want %s", tc.file, tc.relation)
		}
	}
}
