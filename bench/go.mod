module github.com/darkvec/darkvec/bench

go 1.22

require github.com/darkvec/darkvec v0.0.0

replace github.com/darkvec/darkvec => ../
