package analysis

// FullRecomputeForTest returns opts with every statement kept off the
// semi-naïve delta path, so external tests can use the full
// recomputation as the reference the delta path must reproduce.
func FullRecomputeForTest(opts Options) Options {
	opts.fullRecompute = true
	return opts
}
