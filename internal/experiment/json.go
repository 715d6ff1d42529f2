package experiment

import (
	"encoding/json"
	"fmt"
	"io"
)

// DocSchemaVersion identifies the experiment-document JSON layout.
// Bump it on any breaking field change so downstream tooling can
// reject documents it does not understand.
const DocSchemaVersion = 1

// Document is the machine-readable form of an experiments run: every
// executed experiment with its tables and wall-clock cost, produced by
// `experiments -format json`.
type Document struct {
	SchemaVersion int      `json:"schemaVersion"`
	Results       []Result `json:"experiments"`
}

// Result is one experiment's outcome inside a Document.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// ElapsedSeconds spans the unit attempts the experiment owns in the
	// campaign (0 for the analytic tables).
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// UnitTiming digests per-unit wall time (present when a telemetry
	// hub was installed for the run; additive, so no schema bump).
	UnitTiming *UnitTimingSummary `json:"unitTiming,omitempty"`
	Tables     []TableJSON        `json:"tables"`
}

// TableJSON mirrors Table with stable lowerCamel JSON field names.
type TableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// JSON converts a rendered Table into its document form.
func (t *Table) JSON() TableJSON {
	return TableJSON{ID: t.ID, Title: t.Title, Note: t.Note, Headers: t.Headers, Rows: t.Rows}
}

// NewDocument wraps results in a schema-versioned document.
func NewDocument(results []Result) *Document {
	return &Document{SchemaVersion: DocSchemaVersion, Results: results}
}

// Write emits the document as indented JSON.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// LoadDocument parses a document, rejecting unknown schema versions.
func LoadDocument(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("experiment: parse document: %w", err)
	}
	if d.SchemaVersion != DocSchemaVersion {
		return nil, fmt.Errorf("experiment: document schema version %d, this build reads %d",
			d.SchemaVersion, DocSchemaVersion)
	}
	return &d, nil
}
