package scenario

import (
	"encoding/json"
	"fmt"

	"ctsan/internal/dist"
)

// DistSpec is the JSON form of a delay distribution:
//
//	{"kind":"det","v":5}
//	{"kind":"uniform","lo":5,"hi":30}
//	{"kind":"exp","mean":60}
//	{"kind":"mixture","mix":[{"p":0.8,"d":{"kind":"uniform","lo":0.1,"hi":0.13}}, ...]}
type DistSpec struct {
	Kind string  `json:"kind"`
	V    float64 `json:"v,omitempty"`    // det
	Lo   float64 `json:"lo,omitempty"`   // uniform
	Hi   float64 `json:"hi,omitempty"`   // uniform
	Mean float64 `json:"mean,omitempty"` // exp
	Mix  []struct {
		P float64  `json:"p"`
		D DistSpec `json:"d"`
	} `json:"mix,omitempty"` // mixture
}

// Dist converts the spec into a sampleable distribution.
func (d *DistSpec) Dist() (dist.Dist, error) {
	switch d.Kind {
	case "det":
		return dist.Det(d.V), nil
	case "uniform":
		if d.Hi < d.Lo {
			return nil, fmt.Errorf("scenario: uniform with hi %g < lo %g", d.Hi, d.Lo)
		}
		return dist.U(d.Lo, d.Hi), nil
	case "exp":
		if d.Mean < 0 {
			return nil, fmt.Errorf("scenario: exp with negative mean %g", d.Mean)
		}
		return dist.Exp(d.Mean), nil
	case "mixture":
		comps := make([]dist.Component, 0, len(d.Mix))
		for _, c := range d.Mix {
			inner, err := c.D.Dist()
			if err != nil {
				return nil, err
			}
			comps = append(comps, dist.Component{P: c.P, D: inner})
		}
		m, err := dist.NewMixture(comps...)
		if err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("scenario: unknown distribution kind %q", d.Kind)
	}
}

// eventJSON mirrors Event with DistSpec in place of dist.Dist fields.
type eventJSON struct {
	Event
	AtJitter *DistSpec `json:"at_jitter,omitempty"`
	Every    *DistSpec `json:"every,omitempty"`
	Dur      *DistSpec `json:"dur,omitempty"`
	Extra    *DistSpec `json:"extra,omitempty"`
}

// scenarioJSON mirrors Scenario likewise.
type scenarioJSON struct {
	Scenario
	Events     []eventJSON `json:"events,omitempty"`
	PauseEvery *DistSpec   `json:"pause_every,omitempty"`
	PauseDur   *DistSpec   `json:"pause_dur,omitempty"`
}

// LoadJSON parses a scenario from its declarative JSON form, applies the
// builder's default for an omitted execution count, and validates it. Example:
//
//	{
//	  "name": "my-partition", "n": 5, "timeout_t": 30,
//	  "events": [
//	    {"kind": "partition", "at": 500, "groups": [[1,2],[3,4,5]]},
//	    {"kind": "heal", "at": 1100},
//	    {"kind": "pause-storm", "at": 300, "until": 900, "p": 1,
//	     "every": {"kind":"exp","mean":60}, "dur": {"kind":"uniform","lo":5,"hi":30}}
//	  ]
//	}
func LoadJSON(data []byte) (*Scenario, error) {
	var sj scenarioJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return nil, fmt.Errorf("scenario: bad JSON: %w", err)
	}
	s := sj.Scenario
	s.Events = nil
	conv := func(d *DistSpec) (dist.Dist, error) {
		if d == nil {
			return nil, nil
		}
		return d.Dist()
	}
	var err error
	if s.PauseEvery, err = conv(sj.PauseEvery); err != nil {
		return nil, err
	}
	if s.PauseDur, err = conv(sj.PauseDur); err != nil {
		return nil, err
	}
	for i := range sj.Events {
		e := sj.Events[i].Event
		if e.AtJitter, err = conv(sj.Events[i].AtJitter); err != nil {
			return nil, err
		}
		if e.Every, err = conv(sj.Events[i].Every); err != nil {
			return nil, err
		}
		if e.Dur, err = conv(sj.Events[i].Dur); err != nil {
			return nil, err
		}
		if e.Extra, err = conv(sj.Events[i].Extra); err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if s.Executions == 0 {
		s.Executions = defaultExecutions
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
