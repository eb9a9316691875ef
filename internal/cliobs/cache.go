package cliobs

import (
	"flag"

	"scalesim/internal/simcache"
)

// CacheFlags holds the shared result-cache flag values: every tool that
// caches (scalesim, scalesweep, scalesimd) spells the flags the same way
// and resolves them through one switch instead of three copies.
type CacheFlags struct {
	use   bool
	dir   string
	maxMB int64
}

// RegisterCache adds the result-cache flags to fs.
func RegisterCache(fs *flag.FlagSet) *CacheFlags {
	f := &CacheFlags{}
	fs.BoolVar(&f.use, "cache", false,
		"memoize per-layer compute results in memory across this process's runs (repeats inside one run are shared regardless)")
	fs.StringVar(&f.dir, "cache-dir", "",
		"persist the result cache in this directory (implies -cache)")
	fs.Int64Var(&f.maxMB, "cache-max-mb", 0,
		"cap the -cache-dir disk tier at this many MiB, evicting least-recently-used entries (0 = uncapped)")
	return f
}

// Open resolves the flags to a cache: a capped disk cache with
// -cache-dir and -cache-max-mb, an uncapped disk cache with -cache-dir
// alone, an in-memory cache with -cache, and nil (caching off) with
// neither.
func (f *CacheFlags) Open() (*simcache.Cache, error) {
	switch {
	case f.dir != "" && f.maxMB > 0:
		return simcache.NewDiskLRU(f.dir, f.maxMB<<20)
	case f.dir != "":
		return simcache.NewDisk(f.dir)
	case f.use:
		return simcache.New(), nil
	}
	return nil, nil
}
