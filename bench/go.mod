// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it; the
// replace directive points back at the tree it measures, and the
// `beholder/` module-path prefix is what lets it import the layers under
// beholder/internal.
module beholder/bench

go 1.24

require beholder v0.0.0

replace beholder => ../
