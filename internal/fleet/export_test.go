package fleet

// SerialBuild returns cfg set to stamp every host on the calling
// goroutine: the reference build the determinism gates compare the
// sharded parallel bring-up against. core.Config is an alias of Config,
// so the result also feeds core.New.
func SerialBuild(cfg Config) Config {
	cfg.serialBuild = true
	return cfg
}
