package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
)

// TableIRow is one dataset's entry in the Table I reproduction.
type TableIRow struct {
	Name string
	// PaperNodes/PaperEdges document the original crawl.
	PaperNodes, PaperEdges int64
	// Nodes/Edges are the synthetic stand-in's size.
	Nodes int
	Edges int64
	// SLEM is the measured second largest eigenvalue modulus μ.
	SLEM float64
	// Converged reports whether the Lanczos iteration converged within
	// its budget; when false SLEM is the last estimate.
	Converged bool
	Class     datasets.Class
}

// TableIResult is the Table I reproduction: every dataset with its size
// and second largest eigenvalue of the transition matrix.
type TableIResult struct {
	Rows []TableIRow
}

// Table renders the result in the paper's column layout.
func (r *TableIResult) Table() (*report.Table, error) {
	t := report.NewTable(
		"Table I: datasets, synthetic stand-in sizes, and SLEM of the transition matrix",
		"Dataset", "Paper nodes", "Paper edges", "Nodes", "Edges", "mu", "Class",
	)
	for _, row := range r.Rows {
		if err := t.AddRow(
			row.Name,
			report.Int64(row.PaperNodes), report.Int64(row.PaperEdges),
			report.Int(row.Nodes), report.Int64(row.Edges),
			report.Float(row.SLEM, 6), row.Class.String(),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TableI measures every registry dataset's size and SLEM — the Table I
// reproduction. Cancellation of ctx is honored between datasets, so a
// timed-out run stops measuring (and its caller stops printing) instead
// of finishing the table in the background.
func TableI(ctx context.Context, opts Options) (*TableIResult, error) {
	opts.fill()
	specs := datasets.All()
	if opts.Quick {
		specs = datasets.ByBand(datasets.Small)
	}
	res := &TableIResult{Rows: make([]TableIRow, 0, len(specs))}
	for _, spec := range specs {
		scfg := spectral.Config{
			Tolerance:     1e-7,
			MaxIterations: opts.pick(3000, 20000),
			Seed:          opts.Seed,
			Workers:       opts.Workers,
		}
		if opts.Quick {
			scfg.Tolerance = 1e-5
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: table I: %w", err)
		}
		g, err := opts.graphFor(spec.Name)
		if err != nil {
			return nil, err
		}
		sr, err := spectral.SLEMContext(ctx, g, scfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: table I slem of %s: %w", spec.Name, err)
		}
		res.Rows = append(res.Rows, TableIRow{
			Name:       spec.Name,
			PaperNodes: spec.PaperNodes,
			PaperEdges: spec.PaperEdges,
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			SLEM:       sr.SLEM,
			Converged:  sr.Converged,
			Class:      spec.Class,
		})
	}
	return res, nil
}
