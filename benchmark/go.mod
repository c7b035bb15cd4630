module malt/benchmark

go 1.22

require malt v0.0.0

replace malt => ../
