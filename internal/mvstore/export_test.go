package mvstore

import (
	"reflect"
	"slices"
	"testing"

	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

func TestExportKeyCapturesSealedAndStaged(t *testing.T) {
	s := New()
	v1 := tstamp.Make(1, 1, 0)
	v2 := tstamp.Make(2, 1, 0)
	if _, err := s.Put("k", v1, functor.Value([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	s.Seal("k", tstamp.End(1))
	rec, _ := s.Latest("k", tstamp.Max)
	rec.Resolve(functor.ValueResolution([]byte("a")))
	s.AdvanceWatermark("k", v1)
	if _, err := s.Put("k", v2, functor.Value([]byte("b"))); err != nil {
		t.Fatal(err)
	}

	recs, wm, ok := s.ExportKey("k")
	if !ok {
		t.Fatal("ExportKey reported missing key")
	}
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2 (sealed + staged)", len(recs))
	}
	if recs[0].Version != v1 || recs[1].Version != v2 {
		t.Fatalf("export order wrong: %v, %v", recs[0].Version, recs[1].Version)
	}
	if recs[0].Resolution == nil || string(recs[0].Resolution.Value) != "a" {
		t.Fatalf("sealed record's resolution not exported: %+v", recs[0].Resolution)
	}
	if recs[1].Resolution != nil {
		t.Fatalf("unresolved staged record exported with a resolution")
	}
	if wm != v1 {
		t.Fatalf("watermark = %v, want %v", wm, v1)
	}
}

func TestExportMatchingAndDrop(t *testing.T) {
	s := New()
	for _, k := range []kv.Key{"h:1", "h:2", "c:1"} {
		if _, err := s.Put(k, tstamp.Make(1, 1, 0), functor.Value(nil)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ExportMatching(func(k kv.Key) bool { return k >= "h:" && k < "h;" })
	if len(got) != 2 || got[0].Key != "h:1" || got[1].Key != "h:2" {
		t.Fatalf("ExportMatching = %+v, want h:1,h:2", got)
	}
	if !s.Drop("h:1") {
		t.Fatal("Drop of existing key reported false")
	}
	if s.Drop("h:1") {
		t.Fatal("Drop of missing key reported true")
	}
	if _, _, ok := s.ExportKey("h:1"); ok {
		t.Fatal("dropped key still exports")
	}
}

// TestExportImportRoundTrip moves a chain the way a placement handoff does
// — resolved records take their exported outcome whole and are published
// at once, unresolved ones are staged and sealed by their epoch — and requires the copy to export and read the
// same: embedded and array records, a deferred write's placeholder
// functor, a second-round abort, a staged straggler, the watermark.
func TestExportImportRoundTrip(t *testing.T) {
	src := New()
	src.PutFinal("k", tstamp.Make(1, 1, 0), functor.Resolved, []byte("deferred"), false)
	c, aborted, _ := src.Stage("k", tstamp.Make(1, 2, 0), functor.Value([]byte("rolled back"))) // thaws the row
	aborted.Resolve(functor.AbortResolution("second round"))
	src.Put("k", tstamp.Make(1, 3, 0), functor.Add(1))
	c.Seal(tstamp.End(1))
	src.Put("k", tstamp.Make(2, 1, 0), functor.Add(2)) // staged at export time
	c.AdvanceWatermark(tstamp.Make(1, 2, 0))

	recs, wm, _ := src.ExportKey("k")
	dst := New()
	var d *Chain
	for _, er := range recs {
		var rec *Record
		d, rec, _ = dst.Stage("k", er.Version, er.Functor)
		if er.Resolution != nil {
			rec.Resolve(er.Resolution)
			d.Seal(er.Version + 1)
		}
	}
	d.Seal(tstamp.End(1))
	d.AdvanceWatermark(wm)

	got, gotWM, _ := dst.ExportKey("k")
	if !reflect.DeepEqual(got, recs) || gotWM != wm {
		t.Fatalf("re-export differs:\n got %+v wm %v\nwant %+v wm %v", got, gotWM, recs, wm)
	}
	if g, w := versionsOf(dst.View("k")), versionsOf(src.View("k")); !slices.Equal(g, w) {
		t.Fatalf("readable versions %v, source %v", g, w)
	}
	if rec, ok := dst.Latest("k", tstamp.Make(1, 1, 0)); !ok || string(rec.Resolution().Value) != "deferred" {
		t.Fatalf("deferred write lost its value in the move: %+v", rec)
	}
}
