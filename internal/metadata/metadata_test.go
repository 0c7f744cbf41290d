package metadata

import (
	"strings"
	"testing"

	"pdht/internal/keyspace"
)

func TestContentTerms(t *testing.T) {
	got := ContentTerms("The Weather in Iráklion, today!")
	want := []string{"weather", "iráklion", "today"}
	if len(got) != len(want) {
		t.Fatalf("ContentTerms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("term %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestContentTermsEmptyAndAllStops(t *testing.T) {
	if terms := ContentTerms(""); len(terms) != 0 {
		t.Errorf("ContentTerms(\"\") = %v", terms)
	}
	if terms := ContentTerms("the and of to"); len(terms) != 0 {
		t.Errorf("all-stop-word input produced %v", terms)
	}
}

func TestPredicateCanonical(t *testing.T) {
	p := Predicate{Element: "Title", Value: "Weather Iráklion"}
	if got := p.String(); got != "title=weather iráklion" {
		t.Errorf("Predicate.String = %q", got)
	}
}

func TestQueryCanonicalOrderIndependent(t *testing.T) {
	q1 := Query{Predicates: []Predicate{
		{ElemTitle, "Weather Iraklion"}, {ElemDate, "2004/03/14"},
	}}
	q2 := Query{Predicates: []Predicate{
		{ElemDate, "2004/03/14"}, {ElemTitle, "Weather Iraklion"},
	}}
	if q1.Canonical() != q2.Canonical() {
		t.Errorf("canonical forms differ: %q vs %q", q1.Canonical(), q2.Canonical())
	}
	if q1.Key() != q2.Key() {
		t.Error("keys differ for the same conjunction in different order")
	}
}

func TestQueryKeyMatchesHash(t *testing.T) {
	q := Query{Predicates: []Predicate{{ElemSize, "2405"}}}
	if q.Key() != keyspace.HashString("size=2405") {
		t.Error("query key must be the hash of the canonical form")
	}
}

func TestArticleKeysPaperExample(t *testing.T) {
	a := Article{
		ID:     1,
		Title:  "Weather Iráklion",
		Author: "Crete Weather Service",
		Date:   "2004/03/14",
		Size:   2405,
	}
	keys := a.Keys(0)
	byCanon := make(map[string]bool, len(keys))
	for _, k := range keys {
		byCanon[k.Canonical] = true
	}
	// The paper's key1: hash(title=… AND date=…) must be generated.
	if !byCanon["date=2004/03/14&title=weather iráklion"] {
		t.Errorf("missing paper's key1; got %v", keysCanonicals(keys))
	}
	// The paper's key2: hash(size=2405) — generated too (the model, not
	// the generator, decides it is not worth indexing).
	if !byCanon["size=2405"] {
		t.Errorf("missing size predicate; got %v", keysCanonicals(keys))
	}
	// Stop words never become term keys.
	for c := range byCanon {
		if strings.HasPrefix(c, "term=") && stopWords[strings.TrimPrefix(c, "term=")] {
			t.Errorf("stop word indexed: %q", c)
		}
	}
}

func keysCanonicals(keys []IndexKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.Canonical
	}
	return out
}

func TestArticleKeysDeduplicated(t *testing.T) {
	a := Article{Title: "weather weather weather", Author: "x", Date: "2004/01/01", Category: "weather", Size: 1}
	keys := a.Keys(0)
	seen := make(map[string]bool)
	for _, k := range keys {
		if seen[k.Canonical] {
			t.Fatalf("duplicate canonical %q", k.Canonical)
		}
		seen[k.Canonical] = true
	}
}

func TestArticleKeysCap(t *testing.T) {
	a := Article{Title: "alpha beta gamma delta epsilon", Author: "a", Date: "d", Category: "c", Size: 9}
	if got := len(a.Keys(3)); got != 3 {
		t.Errorf("capped Keys returned %d, want 3", got)
	}
	uncapped := len(a.Keys(0))
	if uncapped < 8 {
		t.Errorf("uncapped Keys returned only %d", uncapped)
	}
	if got := len(a.Keys(uncapped + 10)); got != uncapped {
		t.Errorf("cap beyond natural count returned %d, want %d", got, uncapped)
	}
}

func TestGenerateArticlesDeterministic(t *testing.T) {
	a := GenerateArticles(50, 7)
	b := GenerateArticles(50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("article %d differs across runs with same seed", i)
		}
	}
	c := GenerateArticles(50, 8)
	same := 0
	for i := range a {
		if a[i].Title == c[i].Title {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGenerateArticlesIDs(t *testing.T) {
	arts := GenerateArticles(10, 1)
	for i, a := range arts {
		if a.ID != i {
			t.Errorf("article %d has ID %d", i, a.ID)
		}
		if a.Size < 800 || a.Size >= 4800 {
			t.Errorf("article %d has implausible size %d", i, a.Size)
		}
		if a.Title == "" || a.Author == "" || a.Date == "" {
			t.Errorf("article %d has empty metadata: %+v", i, a)
		}
	}
}

func TestCorpusKeysScenarioScale(t *testing.T) {
	// The paper's scenario: 2,000 articles × 20 keys = 40,000 keys.
	// Our generator must be able to supply 20 distinct keys per article.
	arts := GenerateArticles(100, 3)
	for i := range arts {
		if keys := arts[i].Keys(20); len(keys) != 20 {
			t.Fatalf("article %d generated %d keys, want 20 (title %q)",
				i, len(keys), arts[i].Title)
		}
	}
}
