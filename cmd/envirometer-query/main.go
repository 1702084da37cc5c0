// Command envirometer-query is the CLI client of an EnviroMeter server —
// the terminal equivalent of the Android app's point and route queries,
// speaking the v1 pollutant-aware API.
//
// Usage:
//
//	envirometer-query -server http://localhost:8080 point -t 7200 -x 1200 -y 800 [-pollutant co2]
//	envirometer-query -server http://localhost:8080 batch -requests "7200,1200,800,co2 7200,1200,800,pm"
//	envirometer-query -server http://localhost:8080 route -t 7200 -points "0,500 300,550 600,620" [-pollutant co2]
//	envirometer-query -server http://localhost:8080 models -t 7200 [-pollutant co2]
//	envirometer-query -server http://localhost:8080 pollutants
//	envirometer-query -server http://localhost:8080 stats
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "EnviroMeter server base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(*server, args[0], args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-query:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: envirometer-query [-server URL] <command> [args]

commands:
  point  -t T -x X -y Y [-pollutant P]
                                    interpolate one pollutant at one position
  batch  -requests "t,x,y[,pollutant] …"
                                    one round trip, many (mixed-pollutant) requests,
                                    answered with per-request errors
  route  -t T -points "x,y x,y …" [-pollutant P] [-follow]
                                    continuous query along a route (60 s per point);
                                    -follow subscribes instead: the server pushes the
                                    initial vector and then deltas as ingests
                                    invalidate the route's model covers
  models -t T [-pollutant P]        download the model cover valid at T
  pollutants                        list monitored pollutants
  stats                             server statistics`)
}

func run(server, cmd string, args []string) error {
	switch cmd {
	case "point":
		return runPoint(server, args)
	case "batch":
		return runBatch(server, args)
	case "route":
		return runRoute(server, args)
	case "models":
		return runModels(server, args)
	case "pollutants":
		return get(server + "/v1/pollutants")
	case "stats":
		return get(server + "/v1/stats")
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func runPoint(server string, args []string) error {
	fs := flag.NewFlagSet("point", flag.ContinueOnError)
	t := fs.Float64("t", 0, "stream time (seconds)")
	x := fs.Float64("x", 0, "x position (meters)")
	y := fs.Float64("y", 0, "y position (meters)")
	pollutant := fs.String("pollutant", "", "pollutant (co2, co, pm; empty = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{}
	v.Set("t", formatFloat(*t))
	v.Set("x", formatFloat(*x))
	v.Set("y", formatFloat(*y))
	if *pollutant != "" {
		v.Set("pollutant", *pollutant)
	}
	return get(server + "/v1/query?" + v.Encode())
}

func runBatch(server string, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	requests := fs.String("requests", "", `requests as "t,x,y[,pollutant] …"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests == "" {
		return fmt.Errorf("batch: -requests is required")
	}
	type req struct {
		T         float64 `json:"t"`
		X         float64 `json:"x"`
		Y         float64 `json:"y"`
		Pollutant string  `json:"pollutant,omitempty"`
	}
	var reqs []req
	for _, tok := range strings.Fields(*requests) {
		parts := strings.Split(tok, ",")
		if len(parts) != 3 && len(parts) != 4 {
			return fmt.Errorf("batch: bad request %q (want t,x,y[,pollutant])", tok)
		}
		var vals [3]float64
		for i := 0; i < 3; i++ {
			f, err := strconv.ParseFloat(parts[i], 64)
			if err != nil {
				return fmt.Errorf("batch: request %q: %v", tok, err)
			}
			vals[i] = f
		}
		r := req{T: vals[0], X: vals[1], Y: vals[2]}
		if len(parts) == 4 {
			r.Pollutant = parts[3]
		}
		reqs = append(reqs, r)
	}
	body, err := json.Marshal(map[string]interface{}{"requests": reqs})
	if err != nil {
		return err
	}
	return post(server+"/v1/query/batch", body)
}

func runRoute(server string, args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	t := fs.Float64("t", 0, "stream time of the first point (seconds)")
	points := fs.String("points", "", `route points as "x,y x,y …"`)
	interval := fs.Float64("interval", 60, "seconds between consecutive points")
	pollutant := fs.String("pollutant", "", "pollutant (co2, co, pm; empty = server default)")
	follow := fs.Bool("follow", false, "subscribe to server pushes instead of querying once")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *points == "" {
		return fmt.Errorf("route: -points is required")
	}
	type qt struct {
		T float64 `json:"t"`
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	var pts []qt
	for i, tok := range strings.Fields(*points) {
		xy := strings.Split(tok, ",")
		if len(xy) != 2 {
			return fmt.Errorf("route: bad point %q", tok)
		}
		x, err := strconv.ParseFloat(xy[0], 64)
		if err != nil {
			return fmt.Errorf("route: point %q: %v", tok, err)
		}
		y, err := strconv.ParseFloat(xy[1], 64)
		if err != nil {
			return fmt.Errorf("route: point %q: %v", tok, err)
		}
		pts = append(pts, qt{T: *t + float64(i)*(*interval), X: x, Y: y})
	}
	if *follow {
		specs := make([]string, len(pts))
		for i, p := range pts {
			specs[i] = fmt.Sprintf("%s,%s,%s", formatFloat(p.T), formatFloat(p.X), formatFloat(p.Y))
		}
		return followRoute(server, *pollutant, strings.Join(specs, ";"))
	}
	body, err := json.Marshal(map[string]interface{}{"points": pts})
	if err != nil {
		return err
	}
	u := server + "/v1/query/continuous"
	if *pollutant != "" {
		u += "?pollutant=" + url.QueryEscape(*pollutant)
	}
	return post(u, body)
}

func runModels(server string, args []string) error {
	fs := flag.NewFlagSet("models", flag.ContinueOnError)
	t := fs.Float64("t", 0, "stream time (seconds)")
	pollutant := fs.String("pollutant", "", "pollutant (co2, co, pm; empty = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := url.Values{}
	v.Set("t", formatFloat(*t))
	if *pollutant != "" {
		v.Set("pollutant", *pollutant)
	}
	return get(server + "/v1/models?" + v.Encode())
}

// followRoute consumes the GET /v1/subscribe SSE stream, printing one
// line per pushed event. On a dropped connection it reconnects with
// Last-Event-ID, so the server resumes the same subscription (sending a
// resync first if pushes were missed) instead of starting over.
func followRoute(server, pollutant, points string) error {
	v := url.Values{}
	v.Set("points", points)
	if pollutant != "" {
		v.Set("pollutant", pollutant)
	}
	u := server + "/v1/subscribe?" + v.Encode()
	lastID := ""
	for attempt := 0; ; attempt++ {
		id, err := followOnce(u, lastID)
		if id != "" {
			lastID, attempt = id, 0 // progress: reset the retry budget
		}
		if err != nil {
			return err
		}
		if attempt >= 5 {
			return fmt.Errorf("follow: no events after %d reconnects; giving up", attempt)
		}
		fmt.Fprintln(os.Stderr, "envirometer-query: stream dropped; reconnecting")
		time.Sleep(time.Second)
	}
}

// followOnce runs one SSE connection until it drops, returning the last
// event ID seen (for resume). A non-nil error is terminal (the server
// rejected the subscription); a nil error asks the caller to reconnect.
func followOnce(u, lastID string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return lastID, err
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return lastID, nil // transient: reconnect
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return lastID, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				fmt.Printf("%s\t%s\n", event, data)
			}
			event, data = "", ""
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return lastID, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func get(u string) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

func post(u string, body []byte) error {
	resp, err := http.Post(u, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

// dump pretty-prints a JSON response to stdout.
func dump(resp *http.Response) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var v interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		// Not JSON; print raw.
		fmt.Println(string(data))
		return nil
	}
	pretty, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	return nil
}
