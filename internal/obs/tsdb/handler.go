package tsdb

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"rootless/internal/obs"
)

// timeseriesDoc is the JSON shape of /timeseries.
type timeseriesDoc struct {
	IntervalSeconds float64      `json:"interval_seconds"`
	Level           int          `json:"level"`
	Rate            bool         `json:"rate"`
	Series          []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name   string       `json:"name"`
	Labels obs.Labels   `json:"labels,omitempty"`
	Kind   string       `json:"kind"`
	Points [][2]float64 `json:"points"` // [unix_seconds, value]
}

// ServeHTTP implements the /timeseries admin endpoint.
//
//	?format=json|csv   output format (default json)
//	?level=N           resolution level, 0 = finest (default 0)
//	?metric=PREFIX     keep only metrics whose name has this prefix
//	?rate=1            per-second rates for counters (summary _count and
//	                   _sum included); resets clamp to zero
//
// Bad parameters get a 400, matching the admin endpoint contract.
func (rec *Recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	level := 0
	if raw := q.Get("level"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 || v >= rec.Levels() {
			http.Error(w, fmt.Sprintf("bad level parameter (want 0..%d)", rec.Levels()-1),
				http.StatusBadRequest)
			return
		}
		level = v
	}
	rate := false
	switch q.Get("rate") {
	case "", "0", "false":
	case "1", "true":
		rate = true
	default:
		http.Error(w, "bad rate parameter (want 0 or 1)", http.StatusBadRequest)
		return
	}
	series := rec.Series(level, q.Get("metric"))
	if rate {
		for i := range series {
			if series[i].Kind == obs.KindCounter {
				series[i].Points = Rate(series[i].Points)
			}
		}
	}
	switch q.Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		doc := timeseriesDoc{
			IntervalSeconds: rec.Interval().Seconds(),
			Level:           level,
			Rate:            rate,
			Series:          make([]seriesJSON, 0, len(series)),
		}
		for _, se := range series {
			sj := seriesJSON{Name: se.Name, Labels: se.Labels, Kind: se.Kind.String(),
				Points: make([][2]float64, len(se.Points))}
			for i, p := range se.Points {
				sj.Points[i] = [2]float64{float64(p.T.UnixNano()) / 1e9, p.V}
			}
			doc.Series = append(doc.Series, sj)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(doc)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		cw := csv.NewWriter(w)
		_ = cw.Write([]string{"name", "labels", "unix_seconds", "value"})
		for _, se := range series {
			lk := labelKey(se.Labels)
			for _, p := range se.Points {
				_ = cw.Write([]string{
					se.Name, lk,
					strconv.FormatFloat(float64(p.T.UnixNano())/1e9, 'f', 3, 64),
					strconv.FormatFloat(p.V, 'g', -1, 64),
				})
			}
		}
		cw.Flush()
	default:
		http.Error(w, "bad format parameter (want json or csv)", http.StatusBadRequest)
	}
}
