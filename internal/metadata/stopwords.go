// Package metadata models the decentralized news system that motivates the
// paper (§1, §4): peers publish news articles described by metadata files of
// element–value pairs (title, author, date, size, …). Queries are
// conjunctions of predicates over those elements; index keys are obtained by
// hashing single or concatenated element=value pairs, after removing stop
// words — "a standard approach in information retrieval" that the paper
// assumes (§4). Article is one generated news item; Query a parsed
// conjunction of Predicates; IndexKey a hashed element=value pair — the
// unit the DHT actually indexes.
package metadata

import "strings"

// stopWords is the globally known stop-word set the paper assumes all peers
// share (§4). It is the usual short-function-word list used in IR systems.
var stopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "he": true, "in": true, "is": true, "it": true, "its": true,
	"of": true, "on": true, "or": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "were": true, "will": true,
	"with": true, "not": true, "no": true, "so": true, "we": true,
}

// ContentTerms tokenizes s on whitespace, lowercases, strips surrounding
// punctuation, and removes stop words and empty tokens — the terms worth
// considering as index keys.
func ContentTerms(s string) []string {
	fields := strings.Fields(strings.ToLower(s))
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.Trim(f, ".,;:!?\"'()[]{}")
		if f == "" || stopWords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}
