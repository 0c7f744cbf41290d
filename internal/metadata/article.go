package metadata

import (
	"fmt"
	"sort"
	"strings"

	"pdht/internal/keyspace"
)

// Standard metadata element names, matching the paper's example
// (title = "Weather Iráklion", author = "Crete Weather Service",
// date = "2004/03/14", size = "2405").
const (
	ElemTitle    = "title"
	ElemAuthor   = "author"
	ElemDate     = "date"
	ElemSize     = "size"
	ElemCategory = "category"
	ElemTerm     = "term" // a single content term from the title/body
)

// Article is one news item together with its metadata file.
type Article struct {
	ID       int
	Title    string
	Author   string
	Date     string // YYYY/MM/DD, as in the paper's example
	Category string
	Size     int // bytes, like the paper's size = "2405"
	Body     string
}

// Predicate is a single element = value condition.
type Predicate struct {
	Element string
	Value   string
}

// String renders the canonical form element=value, lowercased. Canonical
// form matters: the key for a predicate is the hash of this string, so two
// peers phrasing the same condition must produce identical keys.
func (p Predicate) String() string {
	return strings.ToLower(p.Element) + "=" + strings.ToLower(p.Value)
}

// Query is a conjunction of predicates (element1 = value1 AND
// element2 = value2, as in §1).
type Query struct {
	Predicates []Predicate
}

// Canonical returns the canonical string for the conjunction: predicates in
// lexicographic order joined by '&', so predicate order at the querying peer
// does not change the key.
func (q Query) Canonical() string {
	parts := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// Key returns the index key for the query: the hash of its canonical form.
func (q Query) Key() keyspace.Key {
	return keyspace.HashString(q.Canonical())
}

// IndexKey is one (predicate-combination → key) pair extracted from an
// article's metadata: what actually gets inserted into the distributed
// index.
type IndexKey struct {
	Canonical string
	Key       keyspace.Key
}

// Keys generates the index keys for an article: single element=value pairs,
// content terms of the title (stop words removed), and the concatenated
// pairs the paper singles out as worth indexing (e.g. title AND date). The
// result is deduplicated and capped at maxKeys entries in a deterministic
// order; maxKeys ≤ 0 means no cap. The paper's scenario uses 20 keys per
// article.
func (a *Article) Keys(maxKeys int) []IndexKey {
	queries := make([]Query, 0, 24)
	single := func(elem, val string) {
		queries = append(queries, Query{Predicates: []Predicate{{elem, val}}})
	}
	// Single-element predicates over the whole metadata file.
	single(ElemTitle, a.Title)
	single(ElemAuthor, a.Author)
	single(ElemDate, a.Date)
	single(ElemCategory, a.Category)
	single(ElemSize, fmt.Sprintf("%d", a.Size))
	// Per-term predicates from the title and body, stop words removed.
	terms := ContentTerms(a.Title)
	terms = append(terms, ContentTerms(a.Body)...)
	for _, t := range terms {
		single(ElemTerm, t)
	}
	// Concatenated pairs — the paper's key1 = hash(title=… AND date=…).
	pair := func(e1, v1, e2, v2 string) {
		queries = append(queries, Query{Predicates: []Predicate{{e1, v1}, {e2, v2}}})
	}
	pair(ElemTitle, a.Title, ElemDate, a.Date)
	pair(ElemAuthor, a.Author, ElemDate, a.Date)
	pair(ElemCategory, a.Category, ElemDate, a.Date)
	pair(ElemAuthor, a.Author, ElemCategory, a.Category)
	pair(ElemTitle, a.Title, ElemAuthor, a.Author)
	pair(ElemTitle, a.Title, ElemCategory, a.Category)
	pair(ElemSize, fmt.Sprintf("%d", a.Size), ElemDate, a.Date)
	// Term-scoped refinements: what a reader actually types ("eruption
	// news from today", "weather stories in sport").
	for _, t := range terms {
		pair(ElemTerm, t, ElemDate, a.Date)
		pair(ElemTerm, t, ElemCategory, a.Category)
	}

	seen := make(map[string]bool, len(queries))
	out := make([]IndexKey, 0, len(queries))
	for _, q := range queries {
		c := q.Canonical()
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, IndexKey{Canonical: c, Key: q.Key()})
		if maxKeys > 0 && len(out) == maxKeys {
			break
		}
	}
	return out
}
