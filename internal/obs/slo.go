package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// slo.go: declarative service-level objectives. An Objective like
// "query:p99<50ms" promises that 99% of query requests finish under 50ms;
// benchdiff -slo gates a bench snapshot's latency histograms against it.

// Objective is one parsed SLO clause.
type Objective struct {
	Service   string  // which pipeline the clause governs: "query", "ingest"
	Kind      string  // "p50".."p99.9" for latency, or "error_rate"
	Threshold float64 // seconds for latency kinds, a fraction for error_rate
}

// String renders the objective back in flag syntax, e.g. "query:p99<50ms".
func (o Objective) String() string {
	if o.Kind == "error_rate" {
		return fmt.Sprintf("%s:error_rate<%s", o.Service,
			strconv.FormatFloat(o.Threshold, 'g', -1, 64))
	}
	return fmt.Sprintf("%s:%s<%s", o.Service, o.Kind,
		time.Duration(o.Threshold*float64(time.Second)).String())
}

// ParseSLO parses one clause of the form "service:pNN<duration" or
// "service:error_rate<fraction", e.g. "query:p99<50ms" or
// "ingest:error_rate<0.001".
func ParseSLO(s string) (Objective, error) {
	var o Objective
	colon := strings.IndexByte(s, ':')
	lt := strings.IndexByte(s, '<')
	if colon <= 0 || lt <= colon+1 || lt == len(s)-1 {
		return o, fmt.Errorf("slo %q: want service:kind<value", s)
	}
	o.Service = s[:colon]
	o.Kind = s[colon+1 : lt]
	val := s[lt+1:]
	switch {
	case o.Kind == "error_rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(0 < f && f < 1) {
			return o, fmt.Errorf("slo %q: error_rate threshold must be a fraction in (0,1)", s)
		}
		o.Threshold = f
	case strings.HasPrefix(o.Kind, "p"):
		pct, err := strconv.ParseFloat(o.Kind[1:], 64)
		if err != nil || !(0 < pct && pct < 100) {
			return o, fmt.Errorf("slo %q: quantile must be p(0,100), e.g. p99", s)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return o, fmt.Errorf("slo %q: bad latency threshold %q", s, val)
		}
		o.Threshold = d.Seconds()
	default:
		return o, fmt.Errorf("slo %q: kind must be pNN or error_rate", s)
	}
	return o, nil
}

// ParseSLOs parses a comma-separated list of clauses. An empty string
// yields nil objectives and no error.
func ParseSLOs(s string) ([]Objective, error) {
	var out []Objective
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		o, err := ParseSLO(clause)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
