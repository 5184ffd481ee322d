package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/distance"
)

// CanonicalKey renders the query options as a deterministic,
// human-readable string covering exactly the fields that determine the
// mined output. Two QueryOptions values produce the same key if and
// only if QuerySummary is guaranteed to produce the same result over
// any given summary, which is what makes the key safe to use for
// result caching and in-flight query deduplication (the dard server
// keys its LRU result cache and singleflight groups on it).
//
// Workers is deliberately excluded: parallelism is bit-identical to
// the serial path at every worker count (the PR 1/PR 3 differential
// suites pin this), so queries that differ only in Workers share one
// cache entry. Floats are encoded with strconv.FormatFloat 'g'/-1,
// the shortest form that round-trips exactly — distinct values never
// collide. Group names are rendered with strconv.Quote, so names
// containing spaces, brackets or quotes stay unambiguous.
//
// ParseCanonicalKey inverts the rendering; the two are kept strictly
// in sync by the FuzzQueryOptions round-trip.
func (q QueryOptions) CanonicalKey() string {
	var b strings.Builder
	b.Grow(192)
	b.WriteString("metric=")
	b.WriteString(q.Metric.String())
	b.WriteString(" freq=")
	b.WriteString(strconv.FormatFloat(q.FrequencyFraction, 'g', -1, 64))
	b.WriteString(" minsize=")
	b.WriteString(strconv.Itoa(q.MinClusterSize))
	b.WriteString(" degree=")
	b.WriteString(strconv.FormatFloat(q.DegreeFactor, 'g', -1, 64))
	b.WriteString(" graph=")
	b.WriteString(strconv.FormatFloat(q.GraphFactor, 'g', -1, 64))
	b.WriteString(" maxant=")
	b.WriteString(strconv.Itoa(q.MaxAntecedent))
	b.WriteString(" maxcon=")
	b.WriteString(strconv.Itoa(q.MaxConsequent))
	b.WriteString(" refine=")
	b.WriteString(strconv.FormatBool(q.GlobalRefine))
	b.WriteString(" prune=")
	b.WriteString(strconv.FormatBool(q.PruneImages))
	b.WriteString(" measures=")
	b.WriteString(strconv.FormatBool(q.Measures))
	b.WriteString(" topk=")
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteString(" ante=")
	writeNameList(&b, q.AntecedentGroups)
	b.WriteString(" cons=")
	writeNameList(&b, q.ConsequentGroups)
	b.WriteString(" sweep=")
	writeFloatList(&b, q.SweepFactors)
	return b.String()
}

func writeNameList(b *strings.Builder, names []string) {
	b.WriteByte('[')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(n))
	}
	b.WriteByte(']')
}

func writeFloatList(b *strings.Builder, fs []float64) {
	b.WriteByte('[')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	}
	b.WriteByte(']')
}

// ParseCanonicalKey parses a string produced by CanonicalKey back into
// the QueryOptions it came from (Workers, excluded from the key, comes
// back zero) and validates the result. Parsing is strict — every field
// in its fixed position, nothing trailing — so the canonical key stays
// an injective encoding: ParseCanonicalKey(q.CanonicalKey()) succeeds
// exactly when q (with Workers zeroed) passes Validate.
func ParseCanonicalKey(key string) (QueryOptions, error) {
	p := &keyParser{rest: key}
	var q QueryOptions
	metric := p.field("metric", true)
	if m, ok := distance.ParseClusterMetric(metric); ok {
		q.Metric = m
	} else if p.err == nil {
		p.err = fmt.Errorf("unknown metric %q", metric)
	}
	q.FrequencyFraction = p.floatField("freq")
	q.MinClusterSize = p.intField("minsize")
	q.DegreeFactor = p.floatField("degree")
	q.GraphFactor = p.floatField("graph")
	q.MaxAntecedent = p.intField("maxant")
	q.MaxConsequent = p.intField("maxcon")
	q.GlobalRefine = p.boolField("refine")
	q.PruneImages = p.boolField("prune")
	q.Measures = p.boolField("measures")
	q.TopK = p.intField("topk")
	q.AntecedentGroups = p.nameList("ante")
	q.ConsequentGroups = p.nameList("cons")
	q.SweepFactors = p.floatList("sweep")
	if p.err == nil && p.rest != "" {
		p.err = fmt.Errorf("trailing content %q", p.rest)
	}
	if p.err != nil {
		return QueryOptions{}, fmt.Errorf("core: canonical key: %w: %w", p.err, ErrBadQuery)
	}
	if err := q.validate(); err != nil {
		return QueryOptions{}, err
	}
	return q, nil
}

// keyParser consumes a canonical key left to right. The first error
// sticks; subsequent calls are no-ops.
type keyParser struct {
	rest string
	err  error
}

// lit consumes an exact prefix.
func (p *keyParser) lit(s string) {
	if p.err != nil {
		return
	}
	if !strings.HasPrefix(p.rest, s) {
		p.err = fmt.Errorf("expected %q at %q", s, p.rest)
		return
	}
	p.rest = p.rest[len(s):]
}

// field consumes "name=" (preceded by a space unless first) and returns
// the value token up to the next space or end of input.
func (p *keyParser) field(name string, first bool) string {
	if !first {
		p.lit(" ")
	}
	p.lit(name + "=")
	if p.err != nil {
		return ""
	}
	tok := p.rest
	if i := strings.IndexByte(tok, ' '); i >= 0 {
		tok = tok[:i]
	}
	p.rest = p.rest[len(tok):]
	return tok
}

func (p *keyParser) floatField(name string) float64 {
	tok := p.field(name, false)
	if p.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return f
}

func (p *keyParser) intField(name string) int {
	tok := p.field(name, false)
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return v
}

func (p *keyParser) boolField(name string) bool {
	tok := p.field(name, false)
	if p.err != nil {
		return false
	}
	v, err := strconv.ParseBool(tok)
	if err != nil {
		p.err = fmt.Errorf("field %s: %w", name, err)
	}
	return v
}

// nameList consumes " name=[...]" where entries are Go-quoted strings.
// Quoted lexing (strconv.QuotedPrefix) keeps names containing commas,
// spaces or brackets unambiguous.
func (p *keyParser) nameList(name string) []string {
	p.lit(" " + name + "=[")
	if p.err != nil {
		return nil
	}
	var out []string
	for !strings.HasPrefix(p.rest, "]") {
		if len(out) > 0 {
			p.lit(",")
		}
		if p.err != nil {
			return nil
		}
		quoted, err := strconv.QuotedPrefix(p.rest)
		if err != nil {
			p.err = fmt.Errorf("field %s: bad quoted name at %q", name, p.rest)
			return nil
		}
		p.rest = p.rest[len(quoted):]
		n, err := strconv.Unquote(quoted)
		if err != nil {
			p.err = fmt.Errorf("field %s: %w", name, err)
			return nil
		}
		out = append(out, n)
	}
	p.lit("]")
	return out
}

// floatList consumes " name=[...]" with comma-separated floats.
func (p *keyParser) floatList(name string) []float64 {
	p.lit(" " + name + "=[")
	if p.err != nil {
		return nil
	}
	var out []float64
	for !strings.HasPrefix(p.rest, "]") {
		if len(out) > 0 {
			p.lit(",")
		}
		if p.err != nil {
			return nil
		}
		tok := p.rest
		if i := strings.IndexAny(tok, ",]"); i >= 0 {
			tok = tok[:i]
		}
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			p.err = fmt.Errorf("field %s: %w", name, err)
			return nil
		}
		p.rest = p.rest[len(tok):]
		out = append(out, f)
	}
	p.lit("]")
	return out
}
