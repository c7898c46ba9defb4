package engine

import "temco/internal/memplan"

// LayoutAt exposes the layout an instance builds its frame from at batch.
func (e *Engine) LayoutAt(batch int) memplan.Assignment { return e.layouts.At(batch) }
