package sweep

// CSVQuote quotes a CSV field only when it needs it (commas, quotes,
// newlines). Every CSV export in the repository quotes through it.
func CSVQuote(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(append(out, '"'))
}
