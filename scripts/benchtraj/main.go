// Command benchtraj compares the benchmark's end-to-end metrics between
// a revision and the working tree, and keeps their trajectory in
// BENCH_pipeline.json. Run it from the repository root:
//
//	go run ./scripts/benchtraj pair -rev HEAD -workload serve_ingest -seed 31 -claim peak_rss_mb
//	go run ./scripts/benchtraj record [-runs K]
//	go run ./scripts/benchtraj verify
//
// pair runs bench/run.sh (--trace 0) alternately in a git archive of
// <rev> and in the working tree, switching which runs first each pair,
// and prints each metric's median [q1, q3] on both sides, the change in
// the median and the pairs the working tree won. It exits 1 unless the
// claimed metric wins nine pairs in ten by a gap wider than the base's
// quartile spread, every other median is within its BENCHMARK.json
// bound, and no working-tree run is incorrect or fails more ops. record
// runs every workload K times on the working tree at seed 1 and appends
// each metric's median [q1, q3] per workload, stamped with the build.
// verify times nothing: see its comment.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// trajectory is the file record appends to, at the repository root;
// every entry is recorded at recordSeed.
const (
	trajectory = "BENCH_pipeline.json"
	recordSeed = 1
)

// spec is one end-to-end metric of BENCHMARK.json (keys match fields).
type spec struct {
	Name, Unit, Better string
	Bound              float64
}

// contract is what benchtraj reads of BENCHMARK.json.
type contract struct {
	EndToEnd  []spec `json:"end_to_end"`
	Workloads []struct{ Name string }
}

// result is the last line of a run's standard output; tree is the
// benchmark's source hash from its stderr stamp.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
	tree              string
}

// entry is one record of BENCH_pipeline.json.
type entry struct {
	Tree       string                        `json:"tree"`
	Commit     string                        `json:"commit"`
	Go         string                        `json:"go"`
	GOARCH     string                        `json:"goarch"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	NumCPU     int                           `json:"numcpu"`
	Seed       int                           `json:"seed"`
	Runs       int                           `json:"runs"`
	Workloads  map[string]map[string]quartet `json:"workloads"`
}

// quartet is one metric's runs on one workload.
type quartet struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtraj: ")
	var c contract
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil || json.Unmarshal(b, &c) != nil {
		log.Fatalf("BENCHMARK.json: unreadable (%v)", err)
	}
	switch os.Args[min(1, len(os.Args)-1)] { // the program name: usage
	case "pair":
		pair(c, os.Args[2:])
	case "record":
		record(c, os.Args[2:])
	case "verify":
		cur, err := os.ReadFile(trajectory)
		if err != nil {
			log.Fatal(err)
		}
		// A file HEAD does not hold yet has no committed entries.
		old, _ := exec.Command("git", "show", "HEAD:"+trajectory).Output()
		if err := verify(c, cur, old); err != nil {
			log.Fatalf("%s: %v", trajectory, err)
		}
		fmt.Printf("%s: ok\n", trajectory)
	default:
		log.Fatal("usage: benchtraj pair|record|verify [flags]")
	}
}

func pair(c contract, argv []string) {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	rev := fs.String("rev", "HEAD", "revision to compare the working tree against")
	workload := fs.String("workload", "", "benchmark workload")
	seed := fs.Int("seed", 1, "workload seed, the same for every run")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	claim := fs.String("claim", "", "metric claimed to improve (empty: bounds only)")
	fs.Parse(argv)
	if *workload == "" || *pairs < 1 ||
		*claim != "" && !slices.ContainsFunc(c.EndToEnd, func(s spec) bool { return s.Name == *claim }) {
		log.Fatal("usage: benchtraj pair -workload W [-rev REV] [-seed S] [-pairs N] [-claim METRIC listed in BENCHMARK.json]")
	}
	dir, err := os.MkdirTemp("", "benchtraj-")
	if err != nil {
		log.Fatal(err)
	}
	base, head, err := runPairs(dir, *rev, *pairs, benchArgs(*workload, *seed))
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, seed %d, %d pairs: working tree (head) against %s (base)\n", *workload, *seed, *pairs, *rev)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins\tverdict")
	ok := true
	for _, s := range c.EndToEnd {
		b, h := values(base, s.Name), values(head, s.Name)
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

// benchArgs runs one workload untraced for the benchmark's 20 seconds.
func benchArgs(workload string, seed int) []string {
	return []string{"bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "20", "--trace", "0"}
}

// values is one metric's value in each run.
func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// record runs every workload on the working tree and appends the entry.
func record(c contract, argv []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	runs := fs.Int("runs", 3, "runs per workload")
	fs.Parse(argv)
	if *runs < 1 {
		log.Fatal("usage: benchtraj record [-runs K >= 1]")
	}
	// The commit's full hash, +dirty when tracked files differ from it:
	// the tree hash names the sources measured.
	commit, err := exec.Command("git", "describe", "--always", "--abbrev=40", "--exclude=*", "--dirty=+dirty").Output()
	if err != nil {
		log.Fatalf("git describe: %v", err)
	}
	e := entry{Commit: strings.TrimSpace(string(commit)), Go: runtime.Version(), GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: recordSeed, Runs: *runs,
		Workloads: map[string]map[string]quartet{}}
	for _, w := range c.Workloads {
		var rs []result
		for range *runs {
			r, err := runOnce(".", benchArgs(w.Name, recordSeed))
			if err != nil || !r.Correct {
				log.Fatalf("%s: run failed or incorrect (%v)", w.Name, err)
			}
			e.Tree, rs = r.tree, append(rs, r)
		}
		e.Workloads[w.Name] = map[string]quartet{}
		for _, s := range c.EndToEnd {
			q1, med, q3 := quartiles(values(rs, s.Name))
			e.Workloads[w.Name][s.Name] = quartet{Median: med, Q1: q1, Q3: q3}
		}
	}
	var entries []entry
	if b, err := os.ReadFile(trajectory); err == nil {
		if entries, err = decodeEntries(b); err != nil {
			log.Fatalf("%s: %v", trajectory, err)
		}
	}
	out, _ := json.MarshalIndent(append(entries, e), "", "  ") // strings, ints, finite floats
	if err := os.WriteFile(trajectory, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: appended entry %d (tree %s)\n", trajectory, len(entries)+1, e.Tree)
}

// verify checks cur, the trajectory's working-tree bytes, against old,
// its committed bytes (empty when HEAD has none): old's entries lead
// cur's unchanged, and every entry of cur has the schema, its stamp and
// the record seed (entries compare only at one seed), and names only
// declared workloads and end-to-end metrics.
func verify(c contract, cur, old []byte) error {
	entries, err := decodeEntries(cur)
	if err != nil {
		return err
	}
	if len(old) > 0 {
		committed, err := decodeEntries(old)
		if err != nil {
			return fmt.Errorf("committed file: %w", err)
		}
		if len(entries) < len(committed) || !reflect.DeepEqual(entries[:len(committed)], committed) {
			return fmt.Errorf("the committed %d entries do not lead it unchanged: entries are only appended, never edited", len(committed))
		}
	}
	declared := func(w, m string) bool {
		return slices.ContainsFunc(c.Workloads, func(x struct{ Name string }) bool { return x.Name == w }) &&
			slices.ContainsFunc(c.EndToEnd, func(s spec) bool { return s.Name == m })
	}
	for i, e := range entries {
		if e.Tree == "" || e.Commit == "" || e.Go == "" || e.GOARCH == "" || e.GOMAXPROCS < 1 || e.NumCPU < 1 || e.Runs < 1 || len(e.Workloads) == 0 || e.Seed != recordSeed {
			return fmt.Errorf("entry %d: a stamp field is missing or not positive, or the seed is not %d", i+1, recordSeed)
		}
		for w, metrics := range e.Workloads {
			for m, q := range metrics {
				if !declared(w, m) {
					return fmt.Errorf("entry %d: BENCHMARK.json declares no workload %q or no metric %q", i+1, w, m)
				}
				if !(q.Q1 <= q.Median && q.Median <= q.Q3) {
					return fmt.Errorf("entry %d: %s %s is not q1 <= median <= q3: %+v", i+1, w, m, q)
				}
			}
		}
	}
	return nil
}

// decodeEntries reads a trajectory file strictly: a JSON array of
// entries with no field the schema lacks.
func decodeEntries(b []byte) (entries []entry, err error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return entries, dec.Decode(&entries)
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

// runOnce runs the benchmark in root and parses its last output line
// and the tree hash its stderr stamp names.
func runOnce(root string, args []string) (result, error) {
	var out, stamp bytes.Buffer
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, &out, io.MultiWriter(os.Stderr, &stamp)
	var r result
	if err := cmd.Run(); err != nil {
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("no result line (%v)", err)
	}
	if m := treeStamp.FindSubmatch(stamp.Bytes()); m != nil {
		r.tree = string(m[1])
	}
	return r, nil
}

// treeStamp finds the source hash in the benchmark's stderr stamp.
var treeStamp = regexp.MustCompile(`bench: tree=(\S+)`)

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
