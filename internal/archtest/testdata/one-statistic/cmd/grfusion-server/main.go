package main

import "flag"

var statsInterval = flag.Duration("stats", 0, "")

func configure(cfg *Config) { cfg.StatsInterval = *statsInterval } // want
