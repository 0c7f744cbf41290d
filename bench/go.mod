// The benchmark is a module of its own so the repository's build
// (go build ./... at the root) never depends on it; the replace points at
// the checkout it sits in, which is the program under measurement.
module pdht/bench

go 1.24

require pdht v0.0.0

replace pdht => ../
