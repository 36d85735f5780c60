package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// PaperValue is a reference number from the paper for side-by-side
// reporting.
type PaperValue struct {
	Clients, Servers int
	MBps             float64
}

// Paper-reported points (§3.4 text and the Conclusion; the figures are
// graphs, so only the quoted values are exact).
var (
	// PaperFigure3 — raw write bandwidth.
	PaperFigure3 = []PaperValue{
		{Clients: 1, Servers: 1, MBps: 6.1},
		{Clients: 1, Servers: 8, MBps: 6.4},
		{Clients: 2, Servers: 8, MBps: 12.9},
		{Clients: 4, Servers: 8, MBps: 19.3},
	}
	// PaperFigure4 — useful write throughput.
	PaperFigure4 = []PaperValue{
		{Clients: 1, Servers: 2, MBps: 3.0},
		{Clients: 1, Servers: 4, MBps: 5.5},
		{Clients: 4, Servers: 2, MBps: 6.7},
		{Clients: 4, Servers: 8, MBps: 16.0},
	}
	// PaperColdReadMBps — "a Swarm client can read 4KB blocks from the
	// servers at only 1.7 MB/s".
	PaperColdReadMBps = 1.7
	// PaperMABSting / PaperMABExt2 — Figure 5 elapsed seconds.
	PaperMABSting = 9.4 * float64(time.Second)
	PaperMABExt2  = 17.9 * float64(time.Second)
	// PaperMABStingCPU / PaperMABExt2CPU — CPU utilizations.
	PaperMABStingCPU = 0.93
	PaperMABExt2CPU  = 0.57
)

// paperRef returns the paper's value for a write-sweep point, or nil
// (reported as "-") where the paper quotes none.
func paperRef(refs []PaperValue, clients, servers int) any {
	for _, r := range refs {
		if r.Clients == clients && r.Servers == servers {
			return r.MBps
		}
	}
	return nil
}

// Column names one column of a Table.
type Column struct {
	Name string `json:"name"`
	// Unit names what the column's numbers measure. Durations are
	// nanoseconds in the JSON record and printed as durations.
	Unit string `json:"unit,omitempty"`
	// format is the text reporter's verb for the column's cells.
	format string
}

// Table is every figure's result type: named columns and rows of cells,
// with the paper's reference value as a column where the paper gives
// one. A nil cell is a value that does not exist (printed "-").
type Table struct {
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
	// Notes are one-line findings printed under the rows.
	Notes []string `json:"notes,omitempty"`
}

func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// Print writes tables as aligned text, each under its title.
func Print(w io.Writer, tables []Table) {
	for _, t := range tables {
		fmt.Fprintln(w, t.Title)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		cells := make([]string, len(t.Columns))
		for r := -1; r < len(t.Rows); r++ { // row -1 is the header
			for i, c := range t.Columns {
				cells[i] = c.Name
				if r >= 0 {
					cells[i] = cell(c, t.Rows[r][i])
				}
			}
			fmt.Fprintln(tw, strings.Join(cells, "\t"))
		}
		tw.Flush()
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
		fmt.Fprintln(w)
	}
}

func cell(c Column, v any) string {
	if v == nil {
		return "-"
	}
	if c.format == "" {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf(c.format, v)
}

// Record is the one schema of every BENCH_<name>.json.
type Record struct {
	Figure string  `json:"figure"`
	Title  string  `json:"title"`
	Meta   RunMeta `json:"meta"`
	Tables []Table `json:"tables"`
}

// WriteJSON writes fig's tables as a Record to dir/BENCH_<name>.json
// (numeric figure names get a "fig" prefix) and returns the path.
func WriteJSON(dir string, fig Figure, tables []Table) (string, error) {
	stem := fig.Name
	if stem[0] >= '0' && stem[0] <= '9' {
		stem = "fig" + stem
	}
	data, err := json.MarshalIndent(Record{Figure: fig.Name, Title: fig.Title, Meta: NewRunMeta(), Tables: tables}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+stem+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
