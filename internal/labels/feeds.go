package labels

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/darkvec/darkvec/internal/netutil"
)

// WriteFeed stores a scanner-project IP list, one dotted quad per line —
// the format public feeds such as Stretchoid's opt-out list use.
func WriteFeed(w io.Writer, ips []netutil.IPv4) error {
	bw := bufio.NewWriter(w)
	for _, ip := range ips {
		if _, err := bw.WriteString(ip.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFeed parses an IP list written by WriteFeed. Blank lines and
// #-comments are skipped; malformed addresses are errors.
func ReadFeed(r io.Reader) ([]netutil.IPv4, error) {
	var out []netutil.IPv4
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		ip, err := netutil.ParseIPv4(s)
		if err != nil {
			return nil, fmt.Errorf("labels: feed line %d: %w", line, err)
		}
		out = append(out, ip)
	}
	return out, sc.Err()
}

// ReadFeedDir loads every <class>.txt feed in dir, keyed by class name;
// other files and sub-directories are ignored. An empty dir means no
// feeds were configured and yields an empty map.
func ReadFeedDir(dir string) (map[string][]netutil.IPv4, error) {
	feeds := map[string][]netutil.IPv4{}
	if dir == "" {
		return feeds, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		class, ok := strings.CutSuffix(ent.Name(), ".txt")
		if ent.IsDir() || !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		ips, err := ReadFeed(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ent.Name(), err)
		}
		feeds[class] = ips
	}
	return feeds, nil
}
