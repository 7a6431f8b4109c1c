package jobs

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/trustnet/trustnet/internal/report"
)

// Builder accumulates one job run's output into an Artifact: tables and
// free-form lines into the replayable summary, rendered tables and CSV
// series into output files. It replaces the direct os.Stdout rendering
// and report.Save* calls of the historical runner wrappers, so a job's
// entire effect is captured for content-addressed replay.
type Builder struct {
	summary strings.Builder
	files   []File
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Printf appends a formatted line-fragment to the summary.
func (b *Builder) Printf(format string, args ...any) {
	fmt.Fprintf(&b.summary, format, args...)
}

// Table renders t into the summary, exactly as it would print to
// stdout.
func (b *Builder) Table(t *report.Table) error {
	return t.Render(&b.summary)
}

// AddFile records an output file with the given output-relative path.
func (b *Builder) AddFile(path string, data []byte) {
	b.files = append(b.files, File{Path: path, Data: data})
}

// SaveTable records the rendered table as an output file, mirroring
// report.SaveTable byte-for-byte.
func (b *Builder) SaveTable(path string, t *report.Table) error {
	var buf bytes.Buffer
	if err := t.Render(&buf); err != nil {
		return err
	}
	b.AddFile(path, buf.Bytes())
	return nil
}

// SaveCSV records the series in report.WriteCSV's long form as an
// output file, mirroring report.SaveCSV byte-for-byte.
func (b *Builder) SaveCSV(path string, series []report.Series) error {
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, series); err != nil {
		return err
	}
	b.AddFile(path, buf.Bytes())
	return nil
}

// Artifact returns the accumulated artifact. The Runner fills in the
// job name and fingerprints.
func (b *Builder) Artifact() *Artifact {
	return &Artifact{
		Summary: b.summary.String(),
		Files:   append([]File(nil), b.files...),
	}
}
