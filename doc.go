// Package cryptomining is a from-scratch Go reproduction of the measurement
// system described in "A First Look at the Crypto-Mining Malware Ecosystem: A
// Decade of Unrestricted Wealth" (Pastrana & Suarez-Tangil, IMC 2019).
//
// The library lives under internal/: substrates (binary analysis, fuzzy
// hashing, wallet syntax, YARA-like rules, Stratum protocol, DNS and mining
// pool simulators, AV and OSINT simulation, underground-forum trends, malware
// feeds), the measurement core (extraction, campaign aggregation, profit
// analysis, report datasets), the streaming ingestion engine
// (internal/stream: sharded concurrent analysis with incremental campaign
// aggregation) and its durability layer (internal/persist: write-ahead log,
// checkpoints, crash recovery). Runnable entry points are under cmd/, and
// every internal package is imported by one of them (deps_test.go);
// bench_test.go regenerates every table and figure of the paper's
// evaluation. See README.md and DESIGN.md.
package cryptomining
