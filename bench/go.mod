module rootless/bench

go 1.22

require rootless v0.0.0

replace rootless => ../
