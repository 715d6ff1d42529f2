package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestRenderPathByteIdentical pins every rendering surface of the
// experiment layer — aligned-text Render, WriteCSV, and the JSON
// document — to be byte-identical across two runs of the same
// experiment. TestExperimentDeterminism covers the text render of fig4;
// this test closes the rest of the render path, where a map-iteration
// leak would corrupt committed artifacts (EXPERIMENTS.md tables,
// `experiments -format json` documents) nondeterministically.
func TestRenderPathByteIdentical(t *testing.T) {
	opts := tinyOpts()
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	renderAll := func() (text string, csv, doc []byte) {
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var tb strings.Builder
		var cb bytes.Buffer
		res := Result{ID: e.ID, Title: e.Title}
		for _, table := range tables {
			tb.WriteString(table.Render())
			if err := table.WriteCSV(&cb); err != nil {
				t.Fatal(err)
			}
			res.Tables = append(res.Tables, table.JSON())
		}
		var db bytes.Buffer
		if err := NewDocument([]Result{res}).Write(&db); err != nil {
			t.Fatal(err)
		}
		return tb.String(), cb.Bytes(), db.Bytes()
	}
	text1, csv1, doc1 := renderAll()
	text2, csv2, doc2 := renderAll()
	if text1 != text2 {
		t.Error("text render differs between two identical runs")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("CSV output differs between two identical runs")
	}
	if !bytes.Equal(doc1, doc2) {
		t.Error("JSON document differs between two identical runs")
	}
}
