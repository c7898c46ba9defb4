// Package bench is the root of the benchmark's module. The program is
// ./temcobench; see README.md. This file also keeps `go build ./...` inside
// the module a compile check: with a lone main package matched, go build
// would try to write a binary named after the temcobench directory.
package bench
