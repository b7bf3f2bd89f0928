package obs

import "testing"

func TestParseSLO(t *testing.T) {
	o, err := ParseSLO("query:p99<50ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.Service != "query" || o.Kind != "p99" || o.Threshold != 0.05 {
		t.Fatalf("parsed %+v", o)
	}
	if got := o.String(); got != "query:p99<50ms" {
		t.Fatalf("String() = %q", got)
	}

	o, err = ParseSLO("ingest:error_rate<0.001")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != "error_rate" || o.Threshold != 0.001 {
		t.Fatalf("parsed %+v", o)
	}

	for _, bad := range []string{
		"", "query", "query:p99", "query:<50ms", ":p99<50ms",
		"query:p99<", "query:p99<fast", "query:p0<50ms", "query:p100<50ms",
		"query:error_rate<1.5", "query:error_rate<0", "query:mean<50ms",
		"query:pNaN<5ms", "ingest:error_rate<NaN",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q): want error", bad)
		}
	}
}

func TestParseSLOs(t *testing.T) {
	objs, err := ParseSLOs("query:p99<50ms, ingest:p95<20ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[1].Service != "ingest" {
		t.Fatalf("objs %+v", objs)
	}
	if objs, err := ParseSLOs(""); err != nil || objs != nil {
		t.Fatalf("empty spec: %v %v", objs, err)
	}
	if _, err := ParseSLOs("query:p99<50ms,bogus"); err == nil {
		t.Fatal("want error for bad clause in list")
	}
}
