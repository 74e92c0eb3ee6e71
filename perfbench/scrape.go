package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one read of a Prometheus text exposition (format 0.0.4),
// keyed by series: the metric name and its labels in sorted order.
type scrape map[string]float64

// seriesKey renders name and label pairs (k1, v1, k2, v2, ...) the way
// parseProm keys a series.
func seriesKey(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"="+kv[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm reads every sample line; comments and blank lines are
// skipped. Timestamps after the value are ignored.
func parseProm(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, kv, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", n)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		s[seriesKey(name, kv...)] = v
	}
	return s, sc.Err()
}

// parseSeries splits `name{k="v",...} rest` into its parts, undoing
// the format's \\, \" and \n escapes in label values.
func parseSeries(line string) (name string, kv []string, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", nil, "", fmt.Errorf("no value in %q", line)
	}
	name = line[:i]
	if line[i] != '{' {
		return name, nil, line[i:], nil
	}
	p := i + 1
	for {
		for p < len(line) && (line[p] == ',' || line[p] == ' ') {
			p++
		}
		if p >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated labels in %q", line)
		}
		if line[p] == '}' {
			return name, kv, line[p+1:], nil
		}
		eq := strings.IndexByte(line[p:], '=')
		if eq < 0 || p+eq+1 >= len(line) || line[p+eq+1] != '"' {
			return "", nil, "", fmt.Errorf("bad label in %q", line)
		}
		key := line[p : p+eq]
		p += eq + 2
		var val strings.Builder
		for ; p < len(line) && line[p] != '"'; p++ {
			c := line[p]
			if c == '\\' && p+1 < len(line) {
				p++
				switch line[p] {
				case 'n':
					c = '\n'
				default:
					c = line[p]
				}
			}
			val.WriteByte(c)
		}
		if p >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
		}
		p++ // closing quote
		kv = append(kv, key, val.String())
	}
}

// fetchScrape reads url's exposition.
func fetchScrape(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// sub differences two scrapes of one target: counters and histogram
// buckets become the window's increments. Gauges are differenced too;
// callers read gauges from the later scrape instead.
func (s scrape) sub(earlier scrape) scrape {
	d := make(scrape, len(s))
	for k, v := range s {
		d[k] = v - earlier[k]
	}
	return d
}

func (s scrape) get(name string, kv ...string) float64 { return s[seriesKey(name, kv...)] }

// total sums every series of a family whose labels include kv.
func (s scrape) total(name string, kv ...string) float64 {
	var sum float64
	for key, v := range s {
		if !strings.HasPrefix(key, name) {
			continue
		}
		rest := key[len(name):]
		if rest != "" && rest[0] != '{' {
			continue // another family sharing the prefix
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if l := kv[i] + "=" + kv[i+1]; !strings.Contains(rest, l+",") && !strings.HasSuffix(rest, l+"}") {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// promHist is one histogram series: cumulative bucket counts by upper
// bound, ascending, ending at +Inf.
type promHist struct {
	le     []float64
	cum    []float64
	count  float64
	sumVal float64
}

// hist collects the histogram family name with exactly the labels kv.
func (s scrape) hist(name string, kv ...string) promHist {
	var h promHist
	prefix := seriesKey(name+"_bucket", kv...)
	// Bucket keys carry an extra le label, so match on the other labels.
	for key, v := range s {
		if !strings.HasPrefix(key, name+"_bucket{") {
			continue
		}
		le, others := splitLE(key[len(name+"_bucket"):])
		if seriesKey(name+"_bucket", others...) != prefix {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		h.le = append(h.le, b)
		h.cum = append(h.cum, v)
	}
	idx := make([]int, len(h.le))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.le[idx[a]] < h.le[idx[b]] })
	le, cum := make([]float64, len(idx)), make([]float64, len(idx))
	for i, j := range idx {
		le[i], cum[i] = h.le[j], h.cum[j]
	}
	h.le, h.cum = le, cum
	h.count = s.get(name+"_count", kv...)
	h.sumVal = s.get(name+"_sum", kv...)
	return h
}

// splitLE parses a `{k=v,...}` label block and separates le.
func splitLE(block string) (le string, others []string) {
	block = strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	for _, p := range strings.Split(block, ",") {
		k, v, _ := strings.Cut(p, "=")
		if k == "le" {
			le = v
			continue
		}
		others = append(others, k, v)
	}
	return le, others
}

// quantile estimates the q-quantile the way Prometheus's
// histogram_quantile does: find the bucket holding rank q*count and
// interpolate linearly inside it. A rank in the +Inf bucket answers
// the largest finite bound. Zero when the histogram is empty.
func (h promHist) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		if math.IsInf(h.le[i], 1) {
			if i == 0 {
				return 0
			}
			return h.le[i-1]
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = h.le[i-1], h.cum[i-1]
		}
		if c == prev {
			return h.le[i]
		}
		return lo + (h.le[i]-lo)*(rank-prev)/(c-prev)
	}
	return h.le[len(h.le)-1]
}
