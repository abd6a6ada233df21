// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles it; its import path
// stays under gossipopt/, which is what lets it import the parent's
// internal packages through the replace below.
module gossipopt/benchmark

go 1.22

require gossipopt v0.0.0

replace gossipopt => ../
