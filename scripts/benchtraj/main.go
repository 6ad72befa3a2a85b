// Command benchtraj compares the benchmark's end-to-end metrics between
// a revision and the working tree. Run it from the repository root:
//
//	go run ./scripts/benchtraj pair -rev HEAD -workload serve_ingest -seed 31 -claim peak_rss_mb
//
// pair runs bench/run.sh (--trace 0) alternately in a git archive of
// <rev> and in the working tree, switching which runs first each pair,
// and prints each metric's median [q1, q3] on both sides, the change in
// the median and the pairs the working tree won. It exits 1 unless the
// claimed metric wins nine pairs in ten by a gap wider than the base's
// quartile spread, every other median is within its BENCHMARK.json
// bound, and no working-tree run is incorrect or fails more ops.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// spec is one end-to-end metric of BENCHMARK.json (keys match fields).
type spec struct {
	Name, Unit, Better string
	Bound              float64
}

// result is the last line of a run's standard output.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtraj: ")
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	rev := fs.String("rev", "HEAD", "revision to compare the working tree against")
	workload := fs.String("workload", "", "benchmark workload")
	seed := fs.Int("seed", 1, "workload seed, the same for every run")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	claim := fs.String("claim", "", "metric claimed to improve (empty: bounds only)")
	fs.Parse(os.Args[min(2, len(os.Args)):])
	var contract struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil || json.Unmarshal(b, &contract) != nil {
		log.Fatalf("BENCHMARK.json: unreadable (%v)", err)
	}
	if len(os.Args) < 2 || os.Args[1] != "pair" || *workload == "" || *pairs < 1 ||
		*claim != "" && !slices.ContainsFunc(contract.EndToEnd, func(s spec) bool { return s.Name == *claim }) {
		log.Fatal("usage: benchtraj pair -workload W [-rev REV] [-seed S] [-pairs N] [-claim METRIC listed in BENCHMARK.json]")
	}
	dir, err := os.MkdirTemp("", "benchtraj-")
	if err != nil {
		log.Fatal(err)
	}
	args := []string{"bench/run.sh", "--workload", *workload, "--seed", strconv.Itoa(*seed), "--seconds", "20", "--trace", "0"}
	base, head, err := runPairs(dir, *rev, *pairs, args)
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, seed %d, %d pairs: working tree (head) against %s (base)\n", *workload, *seed, *pairs, *rev)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins\tverdict")
	ok := true
	for _, s := range contract.EndToEnd {
		var b, h []float64
		for i := range base {
			b, h = append(b, base[i].Metrics[s.Name].Value), append(h, head[i].Metrics[s.Name].Value)
		}
		v := judge(s, b, h, s.Name == *claim)
		ok = ok && v.ok
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", s.Name, s.Unit, spread(b), spread(h), 100*v.change, v.wins, len(b), v.verdict)
	}
	tw.Flush()
	if msg := failures(base, head); msg != "" || !ok {
		fmt.Println(msg)
		os.Exit(1)
	}
}

// runPairs alternates args between a git archive of rev and the tree.
func runPairs(dir, rev string, pairs int, args []string) (base, head []result, err error) {
	if out, err := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", rev, dir).CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("export %s: %v\n%s", rev, err, out)
	}
	for i := range 2 * pairs {
		root, runs := dir, &base
		if (i/2+i%2)%2 == 1 { // the base runs first on even pairs
			root, runs = ".", &head
		}
		r, err := runOnce(root, args)
		if err != nil {
			return nil, nil, fmt.Errorf("pair %d in %s: %w", i/2+1, root, err)
		}
		*runs = append(*runs, r)
	}
	return base, head, nil
}

// runOnce runs the benchmark in root and parses its last output line.
func runOnce(root string, args []string) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, &out, os.Stderr
	var r result
	if err := cmd.Run(); err != nil {
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("no result line (%v)", err)
	}
	return r, nil
}

// quartiles returns the type-7 lower quartile, median and upper quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo, hi := math.Floor(pos), math.Ceil(pos)
		return s[int(lo)]*(1-(pos-lo)) + s[int(hi)]*(pos-lo)
	}
	return at(0.25), at(0.5), at(0.75)
}

func spread(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// verdict is one metric's comparison; a positive change is worse.
type verdict struct {
	change  float64
	wins    int
	ok      bool
	verdict string
}

// judge compares one metric's runs, base[i] paired with head[i]. A pair
// is won by the better value; a tie counts for neither side.
func judge(s spec, base, head []float64, claimed bool) verdict {
	sign := map[string]float64{"lower": 1, "higher": -1}[s.Better]
	var v verdict
	for i := range base {
		if sign*(head[i]-base[i]) < 0 {
			v.wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	v.change = sign * (hmed - bmed) / math.Abs(bmed) // ±Inf from a zero base
	if hmed == bmed {
		v.change = 0 // not 0/0
	}
	gain := sign * (bmed - hmed) // positive when the head is better
	switch {
	case claimed && 10*v.wins >= 9*len(base) && gain > bq3-bq1:
		v.ok, v.verdict = true, "claim met"
	case claimed:
		v.verdict = fmt.Sprintf("claim NOT met (gap %.4g, base spread %.4g)", gain, bq3-bq1)
	case v.change > s.Bound:
		v.verdict = fmt.Sprintf("REGRESSION past the %.0f%% bound", 100*s.Bound)
	default:
		v.ok, v.verdict = true, "within bound"
	}
	return v
}

// failures reports an incorrect head run, or a larger share of failed
// ops on the head than on the base; empty when neither holds.
func failures(base, head []result) string {
	var failed, attempted [2]int
	for k, rs := range [][]result{base, head} {
		for _, r := range rs {
			if k == 1 && !r.Correct {
				return "a head run was incorrect"
			}
			failed[k], attempted[k] = failed[k]+r.Failed, attempted[k]+r.Attempted
		}
	}
	if failed[1]*attempted[0] > failed[0]*attempted[1] {
		return fmt.Sprintf("head failed %d/%d ops, base %d/%d", failed[1], attempted[1], failed[0], attempted[0])
	}
	return ""
}
