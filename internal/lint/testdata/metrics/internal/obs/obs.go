// Fixture registry: the method set the metrics analyzer resolves
// (Counter/Gauge/Histogram/Help on a type in the obs package).
package obs

type Registry struct{}

type Counter struct{}

type Gauge struct{}

type Histogram struct{}

func (r *Registry) Counter(name string, labels ...string) *Counter { return &Counter{} }

func (r *Registry) Gauge(name string, labels ...string) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name string, labels ...string) *Histogram { return &Histogram{} }

func (r *Registry) Help(name, text string) {}
