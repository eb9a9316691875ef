package dram

// RefConsume is the per-word reference for tests outside the package.
var RefConsume = refConsume
