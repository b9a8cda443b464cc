package experiments

import (
	"fmt"

	"github.com/darkvec/darkvec/internal/core"
	"github.com/darkvec/darkvec/internal/darksim"
	"github.com/darkvec/darkvec/internal/labels"
	"github.com/darkvec/darkvec/internal/metrics"
	"github.com/darkvec/darkvec/internal/packet"
	"github.com/darkvec/darkvec/internal/services"
	"github.com/darkvec/darkvec/internal/trace"
)

// Table1 reproduces the dataset statistics table: full trace and last day,
// with the top-3 TCP ports.
func (e *Env) Table1() (Result, error) {
	r := Result{
		ID:     "table1",
		Title:  "Dataset statistics",
		Header: []string{"slice", "dates", "sources", "packets", "ports", "top-tcp-port", "traffic", "port-sources"},
	}
	for _, slice := range []struct {
		name string
		tr   *trace.Trace
	}{
		{fmt.Sprintf("%d days", e.Opts.Days), e.Full},
		{"last day", e.Last},
	} {
		s := slice.tr.Summary(3)
		dates := s.FirstDay
		if s.LastDay != s.FirstDay {
			dates = s.FirstDay + ".." + s.LastDay
		}
		for i, tp := range s.TopTCP {
			row := []string{"", "", "", "", "", tp.Key.String(), pct(tp.TrafficShare), itoa(tp.Sources)}
			if i == 0 {
				row[0], row[1], row[2], row[3], row[4] =
					slice.name, dates, itoa(s.Sources), itoa(s.Packets), itoa(s.Ports)
			}
			r.Rows = append(r.Rows, row)
		}
	}
	top := e.Last.TopPorts(3, packet.IPProtocolTCP)
	shape := make([]string, 0, 3)
	for _, p := range top {
		shape = append(shape, p.Key.String())
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("last-day top-3 TCP ports: %v (paper: 445, 5555, 23)", shape))
	return r, nil
}

// Fig1a reproduces the packets-per-port ECDF and the top-14 port inset.
func (e *Env) Fig1a() (Result, error) {
	counts := e.Full.PortCounts()
	samples := make([]float64, 0, len(counts))
	for _, c := range counts {
		samples = append(samples, float64(c))
	}
	ecdf := metrics.NewECDF(samples)
	r := Result{
		ID:     "fig1a",
		Title:  "Packets-per-port distribution",
		Header: []string{"rank", "port", "packets", "traffic-share"},
	}
	for i, p := range e.Full.TopPorts(14, 0) {
		r.Rows = append(r.Rows, []string{itoa(i + 1), p.Key.String(), itoa(p.Packets), pct(p.TrafficShare)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("distinct ports observed: %d", len(counts)),
		fmt.Sprintf("median packets per port: %.0f; p99: %.0f (heavy tail as in the paper)",
			ecdf.Quantile(0.5), ecdf.Quantile(0.99)))
	return r, nil
}

// Fig1b summarises the sender-activity raster: continuous growth of the
// sender population with persistent, sporadic and one-shot senders.
func (e *Env) Fig1b() (Result, error) {
	senders := e.Full.Senders()
	raster := e.Full.Raster(senders, 86400)
	occ := raster.Occupancy()
	var persistent, sporadic, oneShot int
	for _, o := range occ {
		switch {
		case o >= 0.8:
			persistent++
		case o > 1.0/float64(raster.Bins)+1e-9:
			sporadic++
		default:
			oneShot++
		}
	}
	r := Result{
		ID:     "fig1b",
		Title:  "Sender activity over time",
		Header: []string{"behaviour", "senders", "share"},
	}
	total := float64(len(occ))
	r.Rows = append(r.Rows,
		[]string{"persistent (≥80% of days)", itoa(persistent), pct(float64(persistent) / total)},
		[]string{"sporadic (several days)", itoa(sporadic), pct(float64(sporadic) / total)},
		[]string{"single-day", itoa(oneShot), pct(float64(oneShot) / total)},
	)
	r.Notes = append(r.Notes, "paper Fig. 1b: a dark persistent band, horizontal sporadic segments, sparse dots")
	return r, nil
}

// Fig2a reproduces the packets-per-sender ECDF and the active filter.
func (e *Env) Fig2a() (Result, error) {
	counts := e.Full.SenderCounts()
	samples := make([]float64, 0, len(counts))
	oneShot := 0
	active := 0
	for _, c := range counts {
		samples = append(samples, float64(c))
		if c == 1 {
			oneShot++
		}
		if c >= 10 {
			active++
		}
	}
	ecdf := metrics.NewECDF(samples)
	var activePkts, totalPkts int
	for _, c := range counts {
		totalPkts += c
		if c >= 10 {
			activePkts += c
		}
	}
	r := Result{
		ID:     "fig2a",
		Title:  "Packets per sender and the 10-packet filter",
		Header: []string{"metric", "value", "paper"},
	}
	n := float64(len(counts))
	r.Rows = append(r.Rows,
		[]string{"senders seen exactly once", pct(float64(oneShot) / n), "36%"},
		[]string{"active senders (≥10 packets)", pct(float64(active) / n), "20%"},
		[]string{"traffic from active senders", pct(float64(activePkts) / float64(totalPkts)), "majority"},
		[]string{"median packets per sender", fmt.Sprintf("%.0f", ecdf.Quantile(0.5)), "<10"},
	)
	return r, nil
}

// Fig2b reproduces the cumulative sender growth, filtered and unfiltered.
func (e *Env) Fig2b() (Result, error) {
	unf := e.Full.CumulativeSenders(1)
	fil := e.Full.CumulativeSenders(10)
	r := Result{
		ID:     "fig2b",
		Title:  "Cumulative distinct senders over time",
		Header: []string{"day", "unfiltered", "active-only"},
	}
	for d := range unf {
		r.Rows = append(r.Rows, []string{itoa(d + 1), itoa(unf[d]), itoa(fil[d])})
	}
	last := len(unf) - 1
	r.Notes = append(r.Notes, fmt.Sprintf(
		"after %d days: %d senders, %d active (%.0f%%; paper: ~20%% of >500k)",
		last+1, unf[last], fil[last], 100*float64(fil[last])/float64(unf[last])))
	return r, nil
}

// Table2 reproduces the ground-truth class table on the last day.
func (e *Env) Table2() (Result, error) {
	rows := labels.Table2(e.Last, e.GT, e.Active)
	r := Result{
		ID:     "table2",
		Title:  "Ground-truth classes, last day, active senders",
		Header: []string{"class", "senders", "packets", "ports", "top-5 ports (traffic)", "top5-share"},
	}
	for _, row := range rows {
		var tops []string
		for _, p := range row.TopPorts {
			tops = append(tops, fmt.Sprintf("%s(%.1f%%)", p.Key, p.TrafficShare*100))
		}
		r.Rows = append(r.Rows, []string{
			row.Label, itoa(row.Senders), itoa(row.Packets), itoa(row.Ports),
			fmt.Sprintf("%v", tops), pct(row.TopShare),
		})
	}
	return r, nil
}

// Fig3 reproduces the class × service heatmap.
func (e *Env) Fig3() (Result, error) {
	h := core.BuildHeatmap(e.Last, e.GT, services.NewDomain())
	r := Result{
		ID:     "fig3",
		Title:  "Fraction of daily packets per (class, service)",
		Header: append([]string{"class"}, h.Services...),
	}
	for _, c := range h.Classes {
		row := make([]string, 0, len(h.Services)+1)
		row = append(row, c)
		for _, s := range h.Services {
			row = append(row, f3(h.Frac[c][s]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("engin-umich dns share: %.3f (paper: ≈1.0 — the one clean service/class pair)",
			h.Frac[darksim.ClassEnginUmich]["dns"]),
		"all other classes scatter across services, motivating the embedding")
	return r, nil
}

// Fig9 contrasts the Stretchoid and Engin-Umich temporal patterns.
func (e *Env) Fig9() (Result, error) {
	r := Result{
		ID:     "fig9",
		Title:  "Activity regularity of two GT classes",
		Header: []string{"class", "senders", "mean-occupancy", "mean-burstiness"},
	}
	for _, class := range []string{darksim.ClassStretchoid, darksim.ClassEnginUmich} {
		ips := e.Out.Feeds[class]
		raster := e.Full.Raster(ips, 3600)
		occ := metrics.Mean(raster.Occupancy())
		burst := metrics.Mean(raster.Burstiness())
		r.Rows = append(r.Rows, []string{class, itoa(len(ips)), f3(occ), f2(burst)})
	}
	r.Notes = append(r.Notes,
		"paper: Stretchoid is irregular (random sequences), Engin-Umich is impulsive and synchronised")
	return r, nil
}
