package matchcatcher_test

import (
	"fmt"
	"log"
	"strings"

	"matchcatcher"
)

// Example reproduces the paper's running example: debugging the blocker
// Q1: a.City = b.City on the Figure 1 tables surfaces the two true
// matches it kills.
func Example() {
	csvA := `Name,City,Age
Dave Smith,Altanta,18
Daniel Smith,LA,18
Joe Welson,New York,25
Charles Williams,Chicago,45
Charlie William,Atlanta,28`
	csvB := `Name,City,Age
David Smith,Atlanta,18
Joe Wilson,NY,25
Daniel W. Smith,LA,30
Charles Williams,Chicago,45`
	a, err := matchcatcher.ReadCSV("A", strings.NewReader(csvA))
	if err != nil {
		log.Fatal(err)
	}
	b, err := matchcatcher.ReadCSV("B", strings.NewReader(csvB))
	if err != nil {
		log.Fatal(err)
	}

	q1 := matchcatcher.AttrEquivalence("City")
	c, err := q1.Block(a, b)
	if err != nil {
		log.Fatal(err)
	}

	dbg, err := matchcatcher.New(a, b, c, matchcatcher.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// The user's knowledge of which pairs truly match.
	gold := map[matchcatcher.Pair]bool{
		{A: 0, B: 0}: true, {A: 1, B: 2}: true, {A: 2, B: 1}: true, {A: 3, B: 3}: true,
	}
	for !dbg.Done() {
		pairs := dbg.Next()
		if len(pairs) == 0 {
			break
		}
		labels := make([]bool, len(pairs))
		for i, p := range pairs {
			labels[i] = gold[p]
		}
		if err := dbg.Feedback(labels); err != nil {
			log.Fatal(err)
		}
	}
	matches := dbg.Matches()
	fmt.Printf("killed-off matches found: %d\n", len(matches))
	for _, m := range matches {
		for _, note := range dbg.Explain(m).Notes {
			if strings.HasPrefix(note, "City") {
				fmt.Println(note)
			}
		}
	}
	// Unordered output:
	// killed-off matches found: 2
	// City: misspelling ("Altanta" vs "Atlanta")
	// City: abbreviation ("New York" vs "NY")
}

// ExampleParseDropRule shows a Magellan-style kill rule: pairs whose word
// cosine on title falls below 0.4 OR whose prices differ by more than 20
// are blocked.
func ExampleParseDropRule() {
	q, err := matchcatcher.ParseDropRule("my-rule",
		"title_cos_word < 0.4 OR price_absdiff > 20")
	if err != nil {
		log.Fatal(err)
	}
	a, _ := matchcatcher.NewTable("A", []string{"title", "price"})
	a.Append([]string{"usb cable fast charger", "10"})
	b, _ := matchcatcher.NewTable("B", []string{"title", "price"})
	b.Append([]string{"usb cable charger", "12"})
	b.Append([]string{"garden hose", "11"})
	c, err := q.Block(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("surviving pairs:", c.Len())
	// Output:
	// surviving pairs: 1
}

// ExampleRunBlocker runs a union of two rules with a watched pair and
// prints which rule kept or dropped it: the per-rule answer to "which
// blocker rule killed this match".
func ExampleRunBlocker() {
	a, _ := matchcatcher.NewTable("A", []string{"name", "city"})
	a.Append([]string{"Dave Smith", "Altanta"})
	b, _ := matchcatcher.NewTable("B", []string{"name", "city"})
	b.Append([]string{"David Smith", "Atlanta"})
	name, err := matchcatcher.ParseKeepRule("name", "name_jac_word >= 0.3")
	if err != nil {
		log.Fatal(err)
	}
	q := matchcatcher.UnionBlocker("q", matchcatcher.AttrEquivalence("city"), name)

	root := matchcatcher.NewTracer().Start("blocking")
	prov := matchcatcher.NewProvenance([2]int{0, 0})
	c, err := matchcatcher.RunBlocker(q, a, b, root, prov)
	root.End()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("candidates:", c.Len())
	for _, ev := range prov.Trace(0, 0).Events {
		fmt.Println(ev.Attrs["blocker"], ev.Event)
	}
	// Output:
	// candidates: 1
	// attr_equal_city dropped
	// name kept
	// q kept
}
