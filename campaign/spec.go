package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// Study spec wire format. Sharded and resumable campaigns (cmd/ctsan)
// need a study that can cross process boundaries: the supervisor and
// every shard subprocess must reconstruct the identical grid, and shard
// records must be able to say, verifiably, *which* point they are the
// result of. Three pieces provide that:
//
//   - EncodeStudy/DecodeStudy: a versioned JSON document for a Study
//     ({"v":1,"name":...,"points":[{"engine":...,"spec":{...}},...]}).
//   - Frozen: materializes every per-point default Run would otherwise
//     resolve lazily — the derived seed, the display label, the replica
//     count — so a sub-range of the frozen study executes bit-identically
//     to the same points inside a 1-process run of the whole study.
//   - PointHash: a canonical SHA-256 of one point's engine + frozen spec,
//     stored in every shard record; resume and merge only accept records
//     whose hash matches the point at that index, so results from an
//     edited spec (or a different study) can never be silently reused.

// StudySpecVersion is the current study-spec document version.
const StudySpecVersion = 1

// pointSpec is the serialized form of one point: an engine discriminator
// plus the engine-specific point struct.
type pointSpec struct {
	Engine string          `json:"engine"`
	Spec   json.RawMessage `json:"spec"`
}

// studySpec is the serialized form of a Study.
type studySpec struct {
	V      int         `json:"v"`
	Name   string      `json:"name"`
	Points []pointSpec `json:"points"`
}

// encodePoint serializes one point with its engine discriminator. The
// concrete type switch is exhaustive: Point is a sealed interface.
func encodePoint(p Point) (pointSpec, error) {
	switch p.(type) {
	case LatencyPoint, SANPoint, ScenarioPoint:
	default:
		return pointSpec{}, fmt.Errorf("campaign: unsupported point type %T", p)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return pointSpec{}, fmt.Errorf("campaign: encode point: %w", err)
	}
	return pointSpec{Engine: p.Engine().String(), Spec: raw}, nil
}

// EncodeStudy serializes a study as a versioned JSON document, the
// format `ctsan -study` reads. Only the provided point types can be
// encoded (the Point interface is sealed, so that is all of them).
func EncodeStudy(s *Study) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("campaign: encode nil study")
	}
	doc := studySpec{V: StudySpecVersion, Name: s.Name, Points: make([]pointSpec, len(s.Points))}
	for i, p := range s.Points {
		if p == nil {
			return nil, fmt.Errorf("campaign: study point %d is nil", i)
		}
		ps, err := encodePoint(p)
		if err != nil {
			return nil, err
		}
		doc.Points[i] = ps
	}
	return json.MarshalIndent(doc, "", "  ")
}

// DecodeStudy parses an EncodeStudy document back into a Study. Unknown
// engines and document versions are rejected; unknown fields inside a
// point spec are rejected too, so a typo in a hand-written spec fails
// loudly instead of silently running defaults.
func DecodeStudy(data []byte) (*Study, error) {
	var doc studySpec
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("campaign: study spec: %w", err)
	}
	if doc.V != StudySpecVersion {
		return nil, fmt.Errorf("campaign: unsupported study spec version %d", doc.V)
	}
	s := &Study{Name: doc.Name, Points: make([]Point, len(doc.Points))}
	for i, ps := range doc.Points {
		p, err := decodePoint(ps)
		if err != nil {
			return nil, fmt.Errorf("campaign: study point %d: %w", i, err)
		}
		s.Points[i] = p
	}
	return s, nil
}

func decodePoint(ps pointSpec) (Point, error) {
	strict := func(into any) error {
		dec := json.NewDecoder(bytes.NewReader(ps.Spec))
		dec.DisallowUnknownFields()
		return dec.Decode(into)
	}
	switch ps.Engine {
	case "emulation":
		var p LatencyPoint
		if err := strict(&p); err != nil {
			return nil, err
		}
		return p, nil
	case "san":
		var p SANPoint
		if err := strict(&p); err != nil {
			return nil, err
		}
		return p, nil
	case "scenario":
		var p ScenarioPoint
		if err := strict(&p); err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown engine %q", ps.Engine)
}

// PointHash returns the canonical identity of a point spec:
// "sha256:<hex>" over the point's serialized form (engine name plus the
// JSON encoding of the concrete point struct, whose field order Go fixes
// by declaration). Shard records carry it so resume and merge can verify
// a checkpointed result really belongs to the point at its index.
func PointHash(p Point) (string, error) {
	ps, err := encodePoint(p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(ps.Engine))
	h.Write([]byte{0})
	h.Write(ps.Spec)
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), nil
}

// Frozen returns a copy of the study with every lazily-resolved per-point
// default materialized under the given options, exactly as Run would
// resolve them: each point's Seed becomes the derived child seed (unless
// already pinned), its Name becomes the resolved display label, and SAN
// and Scenario points get their effective replica counts. Running any
// sub-range of a frozen study therefore reproduces, bit for bit, the
// results those points have inside a full 1-process run — the property
// the sharded executor (cmd/ctsan) is built on.
//
// Freezing is also where a study is validated: a point no engine could
// run (n < 2, a crashed id outside 1..n, no correct majority, an unknown
// scenario, …) fails here, naming the point, before any other point has
// executed or been leased to a worker.
func Frozen(study *Study, opts ...Option) (*Study, error) {
	o := &options{seed: 1}
	for _, opt := range opts {
		opt(o)
	}
	fz, _, err := frozenWith(study, o)
	return fz, err
}

// frozenWith is Frozen over already-resolved options, returning each
// frozen point prepared to run too: the form run() starts from, so
// execution, the cache key derivation and the public freeze cannot
// disagree about how defaults materialize or which points are valid.
func frozenWith(study *Study, o *options) (*Study, []prepared, error) {
	if study == nil || len(study.Points) == 0 {
		return nil, nil, fmt.Errorf("campaign: freeze of an empty study")
	}
	out := &Study{Name: study.Name, Points: make([]Point, len(study.Points))}
	prep := make([]prepared, len(study.Points))
	for i, p := range study.Points {
		if p == nil {
			return nil, nil, fmt.Errorf("campaign: study point %d is nil", i)
		}
		q, pr, err := p.freeze(o, i)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: point %d (%s): %w", i, label(p, i), err)
		}
		out.Points[i], prep[i] = q, pr
	}
	return out, prep, nil
}

// FrozenPoint describes one materialized grid point of a frozen study:
// the resolved display label, the effective seed and replica count, and
// the content hash (PointHash) of the frozen spec — the identity the
// result cache and shard records key on. Point holds the frozen point
// itself, ready to execute or re-encode.
type FrozenPoint struct {
	Index    int    `json:"index"`
	Label    string `json:"label"`
	Engine   Engine `json:"engine"`
	Seed     uint64 `json:"seed"`
	Replicas int    `json:"replicas"`
	Hash     string `json:"hash"`
	Point    Point  `json:"-"`
}

// FrozenPoints freezes the study under opts (exactly as Frozen does) and
// enumerates the resulting grid with per-point hashes and labels. Callers
// that need cache keys, progress displays, or shard planning previously
// re-derived this by composing Frozen, StudyPointHashes, and the label
// fallback by hand; this is the one canonical enumeration.
func (s *Study) FrozenPoints(opts ...Option) ([]FrozenPoint, error) {
	o := &options{seed: 1}
	for _, opt := range opts {
		opt(o)
	}
	return frozenPoints(s, o)
}

// frozenPoints is FrozenPoints over resolved options.
func frozenPoints(study *Study, o *options) ([]FrozenPoint, error) {
	fz, _, err := frozenWith(study, o)
	if err != nil {
		return nil, err
	}
	out := make([]FrozenPoint, len(fz.Points))
	for i, p := range fz.Points {
		h, err := PointHash(p)
		if err != nil {
			return nil, fmt.Errorf("campaign: point %d: %w", i, err)
		}
		fp := FrozenPoint{Index: i, Label: label(p, i), Engine: p.Engine(), Hash: h, Point: p}
		switch q := p.(type) {
		case LatencyPoint:
			fp.Seed, fp.Replicas = q.Seed, 1
		case SANPoint:
			fp.Seed, fp.Replicas = q.Seed, q.Replicas
		case ScenarioPoint:
			fp.Seed, fp.Replicas = q.Seed, q.Replicas
		}
		out[i] = fp
	}
	return out, nil
}
