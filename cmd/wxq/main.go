// Command wxq parses a WXQuery subscription and explains it: the parsed
// form, the derived properties (§3.1), the selection predicate graph with
// its satisfiability and minimization, and — given a second query — whether
// the first query's result stream could answer the second (Algorithm 2).
//
//	wxq query.xq            explain one subscription
//	wxq stream.xq sub.xq    additionally run the property matching
//	echo '<r>…</r>' | wxq   read the subscription from stdin
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"streamshare/internal/properties"
	"streamshare/internal/wxquery"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wxq: ")
	args := os.Args[1:]
	var err error
	switch len(args) {
	case 0:
		var src []byte
		if src, err = io.ReadAll(os.Stdin); err == nil {
			err = explain(os.Stdout, string(src))
		}
	case 1:
		err = explain(os.Stdout, readFile(args[0]))
	case 2:
		err = match(os.Stdout, readFile(args[0]), readFile(args[1]))
	default:
		log.Fatal("usage: wxq [stream.xq [subscription.xq]]")
	}
	if err != nil {
		log.Fatal(err)
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}

func build(src string) (*wxquery.Query, *properties.Properties, error) {
	q, err := wxquery.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	p, err := properties.FromQuery(q)
	if err != nil {
		return nil, nil, err
	}
	return q, p, nil
}

func explain(w io.Writer, src string) error {
	q, p, err := build(src)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "parsed:")
	fmt.Fprintf(w, "  %s\n", q)
	fmt.Fprintln(w, "properties:")
	for _, in := range p.Inputs {
		fmt.Fprintf(w, "  input stream %q, item path %s\n", in.Stream, in.ItemPath)
		for _, op := range in.Ops {
			switch op.Kind {
			case properties.OpSelect:
				fmt.Fprintf(w, "  σ selection (minimized): %s\n", op.Sel)
				fmt.Fprintf(w, "    satisfiable: %v\n", op.Sel.Satisfiable())
				for _, a := range op.Sel.Atoms() {
					fmt.Fprintf(w, "    atom: %s\n", a)
				}
			case properties.OpProject:
				fmt.Fprintf(w, "  π projection: returned %v, referenced %v\n", op.Out, op.Ref)
			case properties.OpAggregate:
				fmt.Fprintf(w, "  Φ aggregation: %s over window %s\n", op.Agg.Label(), op.Agg.Window.String())
				if op.Agg.Filter != nil {
					fmt.Fprintf(w, "    result filter: %s\n", op.Agg.Filter)
				}
			case properties.OpWindow:
				fmt.Fprintf(w, "  ω window contents: %s\n", op.Agg.Window.String())
			case properties.OpUDF:
				fmt.Fprintf(w, "  user-defined %s(%v) over window %s\n", op.UDF.Name, op.UDF.Params, op.UDF.Window.String())
			}
		}
	}
	return nil
}

func match(w io.Writer, streamSrc, subSrc string) error {
	_, sp, err := build(streamSrc)
	if err != nil {
		return err
	}
	_, qp, err := build(subSrc)
	if err != nil {
		return err
	}
	ok := properties.MatchProperties(sp.Result(), qp)
	fmt.Fprintf(w, "stream properties: %s\n", sp.Result())
	fmt.Fprintf(w, "subscription     : %s\n", qp)
	if ok {
		fmt.Fprintln(w, "MATCH: the stream can be shared to answer the subscription (Algorithm 2)")
	} else {
		fmt.Fprintf(w, "NO MATCH: %s\n", properties.ExplainMismatch(sp.Result(), qp))
	}
	return nil
}
