package figures

import (
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/world"
)

// Figure is one entry of Table: a figure of the paper, what it reads and
// the forms it renders to.
type Figure struct {
	// Name is the figure's -fig name: "1", "3a", ...
	Name string
	// Caption follows the name in shears' "=== Figure N (caption) ===".
	Caption string
	// World reports that the figure reads the synthesized world: 3a, 3b
	// and every figure with Passes, whose samples the world classifies.
	World bool
	// Passes are the suite passes a dataset figure reads from
	// Inputs.Report; zero for a figure that reads no dataset.
	Passes core.PassSet
	// Lines renders the figure as text.
	Lines func(*Inputs) ([]string, error)
	// CSV and SVG render the machine-readable and vector forms; nil when
	// the figure has none.
	CSV, SVG func(io.Writer, *Inputs) error
}

// Title is the figure's name and caption as shears prints them:
// "4 (proximity to the cloud)".
func (f *Figure) Title() string { return f.Name + " (" + f.Caption + ")" }

// Inputs is what a figure is drawn from. A caller fills the fields the
// figures it renders read (Figure.World, Figure.Passes); one Inputs
// serves every form of every figure of a run.
type Inputs struct {
	// World backs Figures 3a and 3b.
	World *world.World
	// Report holds the passes Figures 4-8 read.
	Report *core.SuiteReport
	// Start is the campaign start, the x origin of Figure 7's SVG.
	Start time.Time
}

// Table lists every figure of the paper once, in print order; Names,
// Lookup and every command that renders figures read it.
var Table = []Figure{
	{
		Name: "1", Caption: "zeitgeist",
		Lines: func(*Inputs) ([]string, error) { return figure1Lines(Figure1()), nil },
		CSV:   func(w io.Writer, _ *Inputs) error { return Figure1CSV(w, Figure1()) },
		SVG:   func(w io.Writer, _ *Inputs) error { return Figure1SVG(w, Figure1()) },
	},
	{
		Name: "2", Caption: "application requirements",
		Lines: func(*Inputs) ([]string, error) { return Figure2(apps.Paper()) },
	},
	{
		Name: "3a", Caption: "cloud regions", World: true,
		Lines: func(in *Inputs) ([]string, error) { return Figure3a(in.World.Catalog) },
	},
	{
		Name: "3b", Caption: "probes", World: true,
		Lines: func(in *Inputs) ([]string, error) { return Figure3b(in.World.Probes) },
	},
	{
		Name: "4", Caption: "proximity to the cloud", World: true, Passes: core.PassProximity,
		Lines: func(in *Inputs) ([]string, error) { return Figure4Lines(in.Report.Proximity), nil },
		CSV:   func(w io.Writer, in *Inputs) error { return Figure4CSV(w, in.Report.Proximity) },
	},
	cdfFigure("5", "min RTT CDF by continent", core.PassMinRTT,
		func(r *core.SuiteReport) *core.CDFReport { return r.MinRTT }),
	cdfFigure("6", "all pings to closest DC", core.PassFullDist,
		func(r *core.SuiteReport) *core.CDFReport { return r.FullDist }),
	{
		Name: "7", Caption: "wired vs wireless", World: true, Passes: core.PassLastMile,
		Lines: func(in *Inputs) ([]string, error) { return Figure7Lines(in.Report.LastMile) },
		CSV:   func(w io.Writer, in *Inputs) error { return Figure7CSV(w, in.Report.LastMile) },
		SVG:   func(w io.Writer, in *Inputs) error { return Figure7SVG(w, in.Report.LastMile, in.Start) },
	},
	{
		Name: "8", Caption: "feasibility zone", World: true, Passes: core.PassLastMile,
		Lines: func(in *Inputs) ([]string, error) {
			_, lines, err := Figure8(in.Report.LastMile, apps.Paper())
			return lines, err
		},
		CSV: func(w io.Writer, in *Inputs) error {
			rep, _, err := Figure8(in.Report.LastMile, apps.Paper())
			if err != nil {
				return err
			}
			return Figure8CSV(w, rep)
		},
	},
}

// cdfFigure is the entry of a continent-grouped CDF figure (5 and 6):
// text at the canonical marks, CSV and SVG on the default grid.
func cdfFigure(name, caption string, passes core.PassSet, cdf func(*core.SuiteReport) *core.CDFReport) Figure {
	return Figure{
		Name: name, Caption: caption, World: true, Passes: passes,
		Lines: func(in *Inputs) ([]string, error) { return CDFLines(cdf(in.Report)) },
		CSV:   func(w io.Writer, in *Inputs) error { return CDFCSV(w, cdf(in.Report)) },
		SVG: func(w io.Writer, in *Inputs) error {
			return CDFSVG(w, cdf(in.Report), "Figure "+name+": "+caption)
		},
	}
}

// Lookup returns the table entry named name.
func Lookup(name string) (*Figure, bool) {
	for i := range Table {
		if Table[i].Name == name {
			return &Table[i], true
		}
	}
	return nil, false
}

// Names lists the figure names in table order.
func Names() []string {
	names := make([]string, len(Table))
	for i := range Table {
		names[i] = Table[i].Name
	}
	return names
}
