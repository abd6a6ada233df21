// Package lint holds the repository's self-checks: a godoc lint that
// requires package-level documentation and doc comments on every
// exported identifier (methods with exported names included), a
// documentation link checker that resolves every relative markdown link
// in README.md and docs/, and a size gate that holds every package to its
// line budget in scripts/loc_budget.txt. All run as ordinary tests, so
// `go test ./...` — and the CI step that names this package — enforces
// them without any external tooling.
package lint
