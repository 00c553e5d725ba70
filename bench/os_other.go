//go:build !linux

package main

func fsType(string) string { return "unknown" }

func processCPU() float64 { return 0 }
