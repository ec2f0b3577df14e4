package traffic

// WrapGroundCheck has the ground receiver of e (built with Verify on)
// run wrap(check) in place of its per-burst check, so that tests outside
// the package can watch a verify.
func WrapGroundCheck(e *Engine, wrap func(check func(int)) func(int)) {
	e.ground.check = wrap(e.ground.check)
}
