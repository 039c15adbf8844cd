// Fixture obs package: the leveled logger.
package obs

type Logger struct{}

func (l *Logger) Infof(format string, args ...any) {}
