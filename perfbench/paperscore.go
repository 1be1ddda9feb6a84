package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"atcsched/internal/experiment"
	"atcsched/internal/report"
	"atcsched/internal/runner"
)

// scoreSeed is the scorecard seed a reader runs (the experiments
// command's default). The paper claims are checked at this seed; other
// seeds move individual claims across their bands, so the benchmark
// seed does not change this workload's input.
const scoreSeed = 1

// gainClaim is the scorecard row whose measurement is the ATC speed-up.
const gainClaim = "fig10 ATC gain over CR"

// paperScorePass runs the reproduction scorecard (experiment "score" at
// scale small) through the runner pool. One operation is one claim.
func paperScorePass(_ uint64, tr *tracer) (passResult, error) {
	var res passResult
	start := time.Now()
	e, err := experiment.ByID("score")
	if err != nil {
		return res, err
	}
	sc, err := experiment.ScaleByName("small")
	if err != nil {
		return res, err
	}
	res.BuildS = sinceS(start)

	cells0 := runner.Cells()
	var tables []*report.Table
	err = measure(tr, &res, func() error {
		tr.begin("experiment.Run")
		defer tr.end()
		var err error
		tables, err = e.Run(sc, scoreSeed)
		return err
	})
	cells := runner.Cells() - cells0
	card, perr := parseScorecard(tables)
	res.Attempted = max(card.claims, 1)
	res.Failed = card.claims - card.passed
	switch {
	case err != nil:
		res.fail("score: %v", err)
	case perr != nil:
		res.fail("score: %v", perr)
	}
	res.Det = map[string]float64{
		"experiment.atc_gain_x": card.gain,
		"claims.passed":         float64(card.passed),
		"runner.cells":          float64(cells),
	}
	tr.set("experiment.atc_gain_x", card.gain)
	tr.set("runner.cells", float64(cells))
	if cells > 0 {
		tr.set("go.allocs_per_op", tr.allocs()/float64(cells))
	}
	return res, nil
}

type scorecard struct {
	claims, passed int
	gain           float64
}

// parseScorecard reads the claim verdicts and the ATC gain out of the
// rendered scorecard table.
func parseScorecard(tables []*report.Table) (scorecard, error) {
	var card scorecard
	if len(tables) != 1 {
		return card, fmt.Errorf("want 1 table, got %d", len(tables))
	}
	t := tables[0]
	var passed, claims int
	if _, err := fmt.Sscanf(t.Title, "Reproduction scorecard: %d/%d", &passed, &claims); err != nil {
		return card, fmt.Errorf("title %q: %v", t.Title, err)
	}
	card.claims = len(t.Rows)
	gainFound := false
	for _, row := range t.Rows {
		if len(row) != 4 {
			return card, fmt.Errorf("row %q: want 4 cells", row)
		}
		switch row[3] {
		case "PASS":
			card.passed++
		case "DIVERGES":
		default:
			return card, fmt.Errorf("row %q: unknown verdict", row[0])
		}
		if row[0] == gainClaim {
			g, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "x"), 64)
			if err != nil {
				return card, fmt.Errorf("%s: %v", gainClaim, err)
			}
			card.gain, gainFound = g, true
		}
	}
	switch {
	case claims != card.claims || passed != card.passed:
		return card, fmt.Errorf("title says %d/%d, rows say %d/%d", passed, claims, card.passed, card.claims)
	case !gainFound:
		return card, fmt.Errorf("no %q row", gainClaim)
	}
	return card, nil
}
