package bench

import (
	"strings"
	"testing"
)

func TestReportRender(t *testing.T) {
	r := &Report{
		Title:  "T",
		Header: []string{"a", "bb"},
	}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.AddNote("n=%d", 5)
	out := r.Render()
	for _, want := range []string{"T\n=", "a    bb", "333", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllReportsRender(t *testing.T) {
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 17 {
		t.Fatalf("got %d reports, want 17 (3 tables + 11 figures + 3 ablations)", len(reports))
	}
	for _, r := range reports {
		out := r.Render()
		if len(r.Rows) == 0 {
			t.Errorf("%s has no rows", r.Title)
		}
		if !strings.Contains(out, r.Title) {
			t.Errorf("%s render missing title", r.Title)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) {
				t.Errorf("%s: row width %d != header width %d", r.Title, len(row), len(r.Header))
			}
		}
	}
}

func TestByID(t *testing.T) {
	r, err := ByID("fig16")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Title, "Figure 16") {
		t.Fatalf("ByID(fig16) returned %q", r.Title)
	}
	_, err = ByID("fig99")
	if err == nil {
		t.Fatal("unknown id should fail")
	}
	// -list, the error text and ByID all read the one registry.
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d ids, want 20: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("id %q registered twice", id)
		}
		seen[id] = true
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error does not offer %q: %v", id, err)
		}
	}
}

func TestFig17SpeedupsAllPositive(t *testing.T) {
	r, err := Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("Figure 17 should have 9 workloads, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Speedup columns end with "×" and must not start with "0.".
		for _, col := range []int{3, 6} {
			if strings.HasPrefix(row[col], "0.") {
				t.Errorf("workload %s: Sparker slower than Spark (%s)", row[0], row[col])
			}
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{1024: "1KB", 8 * mb: "8MB", 12: "12B", 256 * mb: "256MB"}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestAWSVariantsRender(t *testing.T) {
	for _, id := range []string{"fig12-aws", "fig13-aws", "fig16-aws", "ablation-imm", "ablation-algos", "ablation-allreduce"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	r := &Report{Title: "T", Header: []string{"a", "b"}}
	r.AddRow("1", "x|y")
	r.AddNote("n")
	md := r.RenderMarkdown()
	for _, want := range []string{"### T", "| a | b |", "| --- | --- |", "x\\|y", "> n"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestVerifyClaimsAllPass(t *testing.T) {
	claims, err := VerifyClaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 13 {
		t.Fatalf("checklist has %d claims, want 13", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: paper %s, measured %s", c.ID, c.Paper, c.Measured)
		}
	}
	out := RenderClaims(claims)
	if !strings.Contains(out, "13/13 claims reproduce") {
		t.Errorf("render summary wrong:\n%s", out)
	}
}
