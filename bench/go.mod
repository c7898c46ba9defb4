// The benchmark is a module of its own because the benchmark contract wants a
// compiled benchmark to carry its own build file in its own directory. So
// building and testing the repository (go build ./... && go test ./...) never
// compiles it, and it fails to build anywhere the repository is absent. The
// temco/ import path prefix is what lets it import temco/internal/...
module temco/bench

go 1.22

require temco v0.0.0

replace temco => ../
