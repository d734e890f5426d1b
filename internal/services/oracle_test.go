package services_test

import (
	"regexp"
	"strings"
	"testing"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/services"
)

// regexpOracle is the reference classifier: first match, in registry
// order, of the Table 3 patterns run through the regexp engine on the
// lower-cased domain without its trailing dot.
type regexpOracle [][]*regexp.Regexp

func newRegexpOracle() regexpOracle {
	var o regexpOracle
	for _, s := range services.Services() {
		var res []*regexp.Regexp
		for _, raw := range s.Patterns() {
			res = append(res, regexp.MustCompile(raw))
		}
		o = append(o, res)
	}
	return o
}

func (o regexpOracle) classify(domain string) *services.Service {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	for i, res := range o {
		for _, re := range res {
			if re.MatchString(domain) {
				return services.Services()[i]
			}
		}
	}
	return nil
}

// oracleDomains lists the catalogue's domains, several shard draws of
// every sharded entry, every Table 3 literal with look-alike variants
// around it, and hand-picked near misses.
func oracleDomains() []string {
	var out []string
	r := dist.NewRand(2022)
	for _, e := range cdn.Catalog() {
		out = append(out, e.Domain)
		for i := 0; i < 8; i++ {
			out = append(out, e.FQDN(r))
		}
	}
	for _, s := range services.Services() {
		for _, raw := range s.Patterns() {
			lit := strings.ReplaceAll(strings.Trim(raw, "^$"), `\.`, ".")
			out = append(out, lit, "a"+lit, lit+"a", "x."+lit, lit+".x", lit[1:], lit[:len(lit)-1])
		}
	}
	out = append(out, "nflx.example", "myskype.comx", "skype.com", "notsky.com",
		"google", "www.googlex.com", "xwww.google.com", "twitter.com.", "twitter.comm",
		"db.tt.evil", "", ".", "..")
	var variants []string
	for _, d := range out {
		variants = append(variants, d, strings.ToUpper(d), d+".", strings.ToUpper(d)+".")
	}
	return variants
}

// TestClassifyMatchesRegexpOracle requires the literal matcher to pick the
// same service as first-match over the original regular expressions.
func TestClassifyMatchesRegexpOracle(t *testing.T) {
	oracle := newRegexpOracle()
	matched := 0
	for _, d := range oracleDomains() {
		want := oracle.classify(d)
		got, ok := services.Classify(d)
		if ok != (want != nil) || got != want {
			t.Errorf("Classify(%q) = %v, regexp oracle %v", d, got, want)
		}
		if want != nil {
			matched++
			if !want.Match(d) {
				t.Errorf("%s.Match(%q) = false, regexp oracle matched", want.Name, d)
			}
		}
	}
	if matched == 0 {
		t.Fatal("oracle matched no domain")
	}
}

// BenchmarkClassify classifies every catalogue domain, the mix the
// synthesizer feeds to the shaper and the analytics enrichment.
func BenchmarkClassify(b *testing.B) {
	var domains []string
	for _, e := range cdn.Catalog() {
		domains = append(domains, e.Domain)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		services.Classify(domains[i%len(domains)])
	}
}
