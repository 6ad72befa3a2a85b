package figures

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/apps"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	return rows
}

func TestFigure1CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure1CSV(&buf, Figure1()); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 17 {
		t.Errorf("%d rows, want header + 16 years", len(rows))
	}
	if strings.Join(rows[0], ",") != "year,edge_pubs,cloud_pubs,edge_search,cloud_search,era" {
		t.Errorf("header = %v", rows[0])
	}
	if err := Figure1CSV(&buf, nil); err == nil {
		t.Error("nil series accepted")
	}
}

func TestFigureCSVFromDataset(t *testing.T) {
	f := dataset(t)

	rep := scanned(t, f)
	rep4, rep5, rep7 := rep.Proximity, rep.MinRTT, rep.LastMile
	var buf bytes.Buffer
	if err := Figure4CSV(&buf, rep4); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != len(rep4.Rows)+1 {
		t.Errorf("figure 4 CSV rows = %d", len(rows))
	}

	buf.Reset()
	if err := CDFCSV(&buf, rep5); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, &buf)
	// 6 continents x 400 grid points + header.
	if len(rows) != 6*400+1 {
		t.Errorf("CDF CSV rows = %d", len(rows))
	}

	buf.Reset()
	if err := Figure7CSV(&buf, rep7); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, &buf)
	if len(rows) != len(rep7.Wired)+len(rep7.Wireless)+1 {
		t.Errorf("figure 7 CSV rows = %d", len(rows))
	}

	rep8, _, err := Figure8(rep7, apps.Paper())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure8CSV(&buf, rep8); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, &buf)
	if len(rows) != len(rep8.Verdicts)+1 {
		t.Errorf("figure 8 CSV rows = %d", len(rows))
	}

	// Nil guards.
	if err := Figure4CSV(&buf, nil); err == nil {
		t.Error("nil proximity accepted")
	}
	if err := CDFCSV(&buf, nil); err == nil {
		t.Error("nil CDF accepted")
	}
	if err := Figure7CSV(&buf, nil); err == nil {
		t.Error("nil last-mile accepted")
	}
	if err := Figure8CSV(&buf, nil); err == nil {
		t.Error("nil feasibility accepted")
	}
}
