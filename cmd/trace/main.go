// Command trace prints where the delay of one probe-to-region path of the
// simulated world lies at one instant: the path's sample split into
// propagation, transit, last mile and bufferbloat, as the §4.3 table
// shears prints. It also summarizes run traces written by cmd/shears -trace.
//
// Usage:
//
//	trace -probe 42 -region 'Amazon/eu-central-1'
//	trace -country NG              # first probe in Nigeria, nearest region
//	trace -summary trace.json      # per-stage wall-time table of a run trace
//
// -probes and -seed default to shears', so a probe ID names the same probe
// in the dataset shears writes with its defaults.
// -summary reads the Chrome trace-event JSON shears -trace writes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/delay"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	var (
		probeID = flag.Int("probe", 0, "probe ID (0 = pick by -country)")
		country = flag.String("country", "DE", "pick the first probe in this country when -probe is 0")
		region  = flag.String("region", "", "target region address (empty = geographically nearest)")
		probes  = flag.Int("probes", 3300, "probe census size")
		seed    = flag.Uint64("seed", 1, "world seed")
		atStr   = flag.String("at", "2019-09-01T12:00:00Z", "sample time (RFC 3339)")
		summary = flag.String("summary", "", "summarize this run trace (Chrome trace-event JSON) instead of sampling a path")
	)
	flag.Parse()
	var lines []string
	var err error
	if *summary != "" {
		lines, err = summarize(*summary)
	} else {
		lines, err = run(*probeID, *country, *region, *probes, *seed, *atStr)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// summarize reads a run trace (Chrome trace-event JSON) and formats its
// per-stage wall-time table.
func summarize(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := obs.ParseTrace(raw)
	if err != nil {
		return nil, fmt.Errorf("parsing trace %s: %w", path, err)
	}
	wall := time.Duration(d.DurationMs * float64(time.Millisecond))
	lines := []string{fmt.Sprintf("trace %s: root %q, wall %v", path, d.Name, wall.Round(time.Millisecond))}
	return append(lines, obs.FormatStageTable(obs.StageTotals(d), wall)...), nil
}

func run(probeID int, country, region string, probes int, seed uint64, atStr string) ([]string, error) {
	at, err := time.Parse(time.RFC3339, atStr)
	if err != nil {
		return nil, fmt.Errorf("bad -at: %w", err)
	}
	w, err := world.Build(world.Config{Seed: seed, Probes: probes})
	if err != nil {
		return nil, err
	}
	pr, err := pickProbe(w, probeID, country)
	if err != nil {
		return nil, err
	}
	r, err := pickRegion(w, pr, region)
	if err != nil {
		return nil, err
	}
	path, err := w.Platform.Path(pr, r)
	if err != nil {
		return nil, err
	}
	lines := []string{fmt.Sprintf("probe %d: %s, %s, %s last mile, to %s at %s",
		pr.ID, pr.Country, pr.Continent, pr.Access, r.Addr(), at.Format(time.RFC3339))}
	b := path.Sample(at)
	if b.Lost {
		return append(lines, "lost: the sample at this instant was lost end to end"), nil
	}
	row := delay.Attribute(fmt.Sprintf("probe %d", pr.ID), b)
	return append(lines, delay.FormatRows([]delay.Attribution{row})...), nil
}

func pickProbe(w *world.World, probeID int, country string) (*probe.Probe, error) {
	if probeID != 0 {
		pr, ok := w.Probes.Lookup(probeID)
		if !ok {
			return nil, fmt.Errorf("unknown probe %d", probeID)
		}
		if pr.Privileged() {
			return nil, fmt.Errorf("probe %d is privileged and excluded from measurements", probeID)
		}
		return pr, nil
	}
	for _, pr := range w.Probes.Public() {
		if pr.Country == country {
			return pr, nil
		}
	}
	return nil, fmt.Errorf("no public probe in %q", country)
}

func pickRegion(w *world.World, pr *probe.Probe, region string) (*cloud.Region, error) {
	if region == "" {
		r := w.Catalog.Nearest(pr.Location)
		if r == nil {
			return nil, fmt.Errorf("empty catalog")
		}
		return r, nil
	}
	r, ok := w.Catalog.Lookup(region)
	if !ok {
		return nil, fmt.Errorf("unknown region %q", region)
	}
	return r, nil
}
